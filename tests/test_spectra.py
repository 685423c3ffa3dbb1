"""Frequency-domain spectra and variance integrals."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from optocool import (
    InvalidParams,
    NormalizedParams,
    QuadratureFailure,
    SingularResponse,
    ThermalNoiseModel,
    Unstable,
    build_system,
    cavity_response,
    classify,
    coth_scale,
    drift_modes,
    effective_rates,
    effective_susceptibility,
    integrate_variances,
    noise_spectrum,
    optimal_detuning,
    position_variance,
    steady_variances,
)
from optocool import spectra
from optocool.spectra import _float_spectrum, _fractions, _quad_moment

FIG2 = NormalizedParams(b=10, phi=10, phi_nl=0.1, q_factor=1e4, n_t_i=100)
DEEP = NormalizedParams(b=10, phi=10, phi_nl=0.01, q_factor=1e5, n_t_i=100)
# the benchmark's degenerate sweep row, whose drift poles nearly coincide at phi ~ 0
COINCIDENT = NormalizedParams(b=1.9206257319033062, phi=0.0, phi_nl=0.09504903620523072,
                              q_factor=5562.406725036761, n_t_i=480.9521065078436)
# poles that coincide at phi = 0; at phi = 1e-10 the coth dp^2 is a quadrature
CUTOFF_COINCIDENT = NormalizedParams(b=1, phi=1e-10, phi_nl=0.3, q_factor=1e4, n_t_i=10)
# the points of both that take the quadrature fallback, with their bath and cutoff
QUADRATURE_POINTS = {
    **{f"coincident-{phi}-{model.value}": (COINCIDENT.replace(phi=phi), model, 100.0)
       for phi in (1e-12, 1e-8) for model in ThermalNoiseModel},
    **{f"cutoff-{omega_max}": (CUTOFF_COINCIDENT, ThermalNoiseModel.QUANTUM_COTH, omega_max)
       for omega_max in (3.0, 100.0, 200.0)},
}
# n_t_i near the float range: the flat variances are finite, near 1.1e308
HUGE_OCCUPANCY = NormalizedParams(b=18.018148102696706, phi=-9.00908471927914,
                                  phi_nl=0.01341490652415349, q_factor=3684.7184194676943,
                                  n_t_i=2.539974757085866e307)
# g = sqrt(2 phi_nl/b) overflows the drift at a point classify calls stable
OVERFLOWING_DRIFT = NormalizedParams(b=6.347468412528946e-64, phi=0,
                                     phi_nl=3.2474854227788175e250,
                                     q_factor=2.718398599618707e22, n_t_i=1)


def bare(q_factor, n_t_i):
    return NormalizedParams(b=10, phi=5, phi_nl=0.0, q_factor=q_factor, n_t_i=n_t_i)


def scalar_spectrum_oracle(params, noise_model):
    """S_q(w) as a plain-Python closure: the oracle of the program's spectrum kernel.

    It shares no arithmetic with ``spectra``: Python's complex type forms
    the products, and the flat weight is written out. The thermal weight
    T(w) is even in w, with the w = 0 coth limit built in. The closure
    raises SingularResponse where the denominator is zero in floating
    point and OverflowError where the value is not finite, as a float
    ``**`` that overflows does too.
    """
    b, phi, phi_nl, q = params.b, params.phi, params.phi_nl, params.q_factor
    phi2 = phi * phi
    two_cross = 2.0 * phi * phi_nl
    four_nl = 4.0 * phi_nl
    if noise_model is ThermalNoiseModel.MARKOV_FLAT:
        flat = 2.0 * ((2.0 * params.n_t_i + 1.0) / q)

        def thermal(w):
            return flat

    else:
        x = coth_scale(params.n_t_i)
        if math.isinf(x):  # zero-temperature bath: coth(x w) -> sign(w)

            def thermal(w):
                return 2.0 * abs(w) / q

        else:

            def thermal(w):
                if x * w == 0.0:  # also where x w underflows (huge n_t_i)
                    return 2.0 / (x * q)
                return 2.0 * w / (q * math.tanh(x * w))

    def s_q(w):
        d = 1.0 - 1j * b * w
        d = d * d + phi2
        denom = d * (1.0 - w * w - 1j * w / q) - two_cross
        dabs2 = d.real * d.real + d.imag * d.imag
        denom2 = denom.real * denom.real + denom.imag * denom.imag
        if denom2 == 0.0:
            raise SingularResponse(f"spectrum denominator vanishes at omega={w}")
        value = (thermal(w) * dabs2 + four_nl * (1.0 + phi2 + (b * w) ** 2)) / denom2
        if not math.isfinite(value):
            raise OverflowError(f"spectrum overflows at omega={w}")
        return value

    return s_q


class TestCothScale:
    def test_zero_occupancy_is_infinite(self):
        assert math.isinf(coth_scale(0.0))

    def test_resonance_weight_identity(self):
        # coth(x) with x = (1/2) ln(1 + 1/n) equals 2n + 1
        for n in (0.5, 1.0, 100.0):
            x = coth_scale(n)
            assert 1.0 / math.tanh(x) == pytest.approx(2 * n + 1, rel=1e-12)


class TestCavityResponse:
    def test_static_limit(self):
        assert cavity_response(0.0, 3.0, 2.0) == pytest.approx(5.0)

    def test_reference_value(self):
        assert cavity_response(1.0, 10.0, 10.0) == pytest.approx(1.0 - 20.0j)

    def test_reality_symmetry(self):
        w = np.linspace(-3, 3, 41)
        d = cavity_response(w, 7.0, 2.5)
        assert np.allclose(d[::-1], np.conj(d))

    @pytest.mark.parametrize("omega", [1e200, np.array([1.0, 1e200])])
    def test_overflow_is_typed_and_names_a_float(self, omega):
        # D ~ -(b w)^2 overflows past |b w| ~ 1e154; no numpy warning escapes
        with pytest.raises(SingularResponse) as err:
            cavity_response(omega, 10.0, 10.0)
        assert str(err.value) == "cavity response is not finite at omega=1e+200"


class TestEffectiveSusceptibility:
    def test_bare_static(self):
        assert effective_susceptibility(0.0, bare(1e4, 0)) == pytest.approx(1.0)

    def test_bare_resonance(self):
        val = effective_susceptibility(1.0, bare(1e4, 0))
        assert val == pytest.approx(1j * 1e4)

    def test_dressed_resonance_magnitude(self):
        # |chi_eff(1)| is close to Q / (Gamma_eff/Gamma); the residual offset
        # is the resonance shift, small at these parameters
        rates = effective_rates(FIG2)
        val = effective_susceptibility(1.0, FIG2)
        assert abs(val) == pytest.approx(
            FIG2.q_factor / rates.gamma_eff_ratio, rel=2e-3
        )

    def test_far_wing_is_its_limit_without_warnings(self):
        # w^2 and D overflow at |w| = 1e200, and chi_eff -> -0 there
        val = effective_susceptibility(1e200, FIG2)
        assert val == 0 and math.copysign(1.0, val.real) == -1.0
        vals = effective_susceptibility(np.array([1.0, 1e200]), FIG2)
        assert vals[0] == effective_susceptibility(1.0, FIG2) and vals[1] == 0

    def test_divergence_names_a_float(self):
        # at Q = 1e300 the bare response diverges on resonance
        with pytest.raises(SingularResponse) as err:
            effective_susceptibility(np.array([0.5, 1.0, 1.5]), bare(1e300, 0))
        assert str(err.value) == "effective susceptibility diverges near omega=1.0"


class TestNoiseSpectrum:
    def test_bare_thermal_lorentzian(self):
        p = bare(1e4, 7.0)
        w = np.linspace(-3, 3, 101)
        got = noise_spectrum(w, p, ThermalNoiseModel.MARKOV_FLAT)
        chi = 1.0 - w**2 - 1j * w / p.q_factor
        want = (2 * (2 * p.n_t_i + 1) / p.q_factor) / np.abs(chi) ** 2
        assert np.allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize(
        "model", [ThermalNoiseModel.MARKOV_FLAT, ThermalNoiseModel.QUANTUM_COTH]
    )
    def test_even_in_frequency(self, model):
        w = np.linspace(0.01, 5, 57)
        s_pos = noise_spectrum(w, FIG2, model)
        s_neg = noise_spectrum(-w, FIG2, model)
        assert np.allclose(s_pos, s_neg, rtol=1e-13)

    @pytest.mark.parametrize(
        "model", [ThermalNoiseModel.MARKOV_FLAT, ThermalNoiseModel.QUANTUM_COTH]
    )
    def test_nonnegative(self, model):
        w = np.linspace(-20, 20, 2001)
        for p in (FIG2, DEEP, bare(1e4, 0)):
            assert np.all(noise_spectrum(w, p, model) >= 0)

    def test_coth_zero_frequency_limit(self):
        s = noise_spectrum(np.array([0.0, 1e-9]), FIG2, ThermalNoiseModel.QUANTUM_COTH)
        assert s[0] == pytest.approx(s[1], rel=1e-6)

    def test_zero_temperature_weight(self):
        p = NormalizedParams(b=10, phi=10, phi_nl=0.1, q_factor=1e4, n_t_i=0.0)
        s = noise_spectrum(np.array([0.5, 0.0]), p, ThermalNoiseModel.QUANTUM_COTH)
        assert s[0] > 0 and s[1] >= 0

    def test_peak_tracks_effective_frequency_when_adiabatic(self):
        rates = effective_rates(DEEP)
        w = np.linspace(0.99, 1.01, 400001)
        s = noise_spectrum(w, DEEP, ThermalNoiseModel.QUANTUM_COTH)
        assert w[s.argmax()] == pytest.approx(rates.omega_eff_ratio, abs=1e-4)

    def test_peak_near_effective_frequency_fig2(self):
        # at these parameters the mode hybridization flattens the peak, so
        # the match is loose
        rates = effective_rates(FIG2)
        w = np.linspace(0.9, 1.1, 200001)
        s = noise_spectrum(w, FIG2, ThermalNoiseModel.QUANTUM_COTH)
        assert w[s.argmax()] == pytest.approx(rates.omega_eff_ratio, abs=0.03)

    def test_sample_type(self):
        # a scalar frequency gives a float, an array of them an array
        s = noise_spectrum(0.5, FIG2)
        assert type(s) is float and s > 0
        values = noise_spectrum(np.array([0.5, -0.5, 2.0]), FIG2)
        assert values.shape == (3,)
        assert values[0] == s and values[1] == pytest.approx(s, rel=1e-12)

    def test_overflow_is_typed_and_names_a_float(self):
        with pytest.raises(SingularResponse) as err:
            noise_spectrum(np.array([1e300, 1.7e308]), FIG2)
        assert str(err.value) == "spectrum overflows at omega=1e+300"

    def test_unstable_rejected(self):
        p = NormalizedParams(b=1, phi=-0.5, phi_nl=2.0, q_factor=100, n_t_i=0)
        with pytest.raises(Unstable):
            noise_spectrum(0.5, p)

    @pytest.mark.parametrize("model", list(ThermalNoiseModel))
    def test_high_q_resonance_is_not_a_real_axis_pole(self, model):
        # decoupled (phi_nl = 0), so S_q(+-1) = T/|1 - w^2 - i w/Q|^2 = Q^2 T
        # with T = 2 (2 n_t_i + 1)/Q under either bath; an absolute
        # singularity test used to reject the resonance as a pole
        p = NormalizedParams(b=1, phi=1, phi_nl=0, q_factor=1e14, n_t_i=1)
        values = noise_spectrum(np.array([-1.0, 1.0]), p, model)
        assert values == pytest.approx([6e14, 6e14], rel=1e-12)


class TestIntegrateVariances:
    def test_bare_oscillator_thermal_equilibrium(self):
        for n in (0.0, 3.0, 100.0):
            res = integrate_variances(bare(1e4, n), ThermalNoiseModel.MARKOV_FLAT)
            assert res.dq2 == pytest.approx(2 * n + 1, rel=1e-7)
            assert res.dp2 == pytest.approx(2 * n + 1, rel=1e-7)
            assert res.n_t_f == pytest.approx(n, rel=1e-6, abs=1e-7)

    def test_two_sided_integral_matches_doubled_half(self):
        s = scalar_spectrum_oracle(FIG2, ThermalNoiseModel.MARKOV_FLAT)
        rates = effective_rates(FIG2)
        pts = [rates.omega_eff_ratio, 1.0, FIG2.phi / FIG2.b]
        two_sided, _ = quad(
            s, -50, 50, points=sorted({-p for p in pts} | set(pts)),
            epsabs=0.0, epsrel=1e-10, limit=400,
        )
        one_sided, _ = quad(
            s, 0, 50, points=sorted(pts), epsabs=0.0, epsrel=1e-10, limit=400
        )
        assert two_sided == pytest.approx(2 * one_sided, rel=1e-8)

    def test_cutoff_convergence(self):
        coth = ThermalNoiseModel.QUANTUM_COTH
        for p in (FIG2, NormalizedParams(b=5, phi=5, phi_nl=0.1, q_factor=1e4, n_t_i=100)):
            lo = integrate_variances(p, coth, omega_max=50.0)
            hi = integrate_variances(p, coth, omega_max=200.0)
            assert abs(lo.dq2 - hi.dq2) / hi.dq2 < 1e-6
            # d(dp^2)/dW = W^2 S_q(W)/pi: the closed form's cutoff dependence,
            # by the five-point central difference (truncation ~ (h/W)^4)
            for cutoff in (50.0, 100.0, 200.0):
                h = 1e-3 * cutoff
                dp2 = [integrate_variances(p, coth, omega_max=cutoff + k * h).dp2
                       for k in (-2, -1, 1, 2)]
                slope = (dp2[0] - 8.0 * dp2[1] + 8.0 * dp2[2] - dp2[3]) / (12.0 * h)
                want = cutoff**2 * noise_spectrum(cutoff, p, coth) / math.pi
                assert slope == pytest.approx(want, rel=1e-6)

    def test_cooling_beats_thermal(self):
        from optocool import decompose

        for p in (FIG2, DEEP, NormalizedParams(b=3, phi=3, phi_nl=0.2, q_factor=1e4, n_t_i=50)):
            dec = decompose(p)
            assert dec.f * p.phi_nl * p.q_factor > 1
            res = integrate_variances(p, ThermalNoiseModel.QUANTUM_COTH)
            assert res.dq2 < 2 * p.n_t_i + 1

    def test_uncertainty_bound(self):
        for p in (FIG2, DEEP, bare(1e4, 0)):
            res = integrate_variances(p, ThermalNoiseModel.MARKOV_FLAT)
            assert res.dq2 * res.dp2 >= 1.0

    def test_occupancy_definition(self):
        res = integrate_variances(FIG2, ThermalNoiseModel.MARKOV_FLAT)
        assert res.n_t_f == pytest.approx((res.dq2 + res.dp2 - 2) / 4, rel=1e-14)

    def test_reported_error_small(self):
        res = integrate_variances(FIG2, ThermalNoiseModel.MARKOV_FLAT)
        assert res.quadrature_error < 1e-6

    def test_occupancy_stays_finite_where_the_variance_sum_overflows(self):
        # dq2 and dp2 are finite, near 1.1e308 each; their sum is not
        res = integrate_variances(HUGE_OCCUPANCY, ThermalNoiseModel.MARKOV_FLAT)
        assert math.isfinite(res.dq2) and math.isfinite(res.dp2)
        assert math.isinf(res.dq2 + res.dp2)
        assert res.n_t_f == 0.25 * res.dq2 + 0.25 * res.dp2 - 0.5
        assert rel(res.n_t_f, 5.47681376614e307) <= 1e-11

    @pytest.mark.parametrize("cutoff", [1.5, math.inf, math.nan])
    def test_bad_cutoff_rejected(self, cutoff):
        # the coth dp^2 diverges without a cutoff, so inf is no cutoff at all
        with pytest.raises(InvalidParams):
            integrate_variances(FIG2, ThermalNoiseModel.QUANTUM_COTH, omega_max=cutoff)

    def test_heating_side_rejected(self):
        p = NormalizedParams(b=10, phi=-5.0, phi_nl=0.1, q_factor=1e4, n_t_i=100)
        with pytest.raises(Unstable):
            integrate_variances(p)

    def test_static_instability_rejected(self):
        p = NormalizedParams(b=10, phi=10.0, phi_nl=6.0, q_factor=1e4, n_t_i=100)
        with pytest.raises(Unstable):
            integrate_variances(p)


def quad_oracle(p, model, power, rtol=1e-10, omega_max=100.0):
    """The adaptive quadrature the residue sums replaced, at a tight tolerance.

    Only the coth dp^2 is cut off at ``omega_max``; the other moments run to infinity.
    """
    cutoff = omega_max if model is ThermalNoiseModel.QUANTUM_COTH and power == 2 else math.inf
    return _quad_moment(p, drift_modes(p).eigenvalues, model, power, cutoff, rtol)[0]


def rel(x, ref):
    return abs(x - ref) / abs(ref)


stable_points = st.builds(
    lambda b, r, nl, q, n: NormalizedParams(
        b=b, phi=r * optimal_detuning(b), phi_nl=nl, q_factor=q, n_t_i=n
    ),
    b=st.floats(0.3, 30.0),
    r=st.floats(-0.3, 2.5),
    nl=st.floats(0.0, 1.0).map(lambda u: 0.3 * 1e-3 ** u),
    q=st.floats(2.0, 7.0).map(lambda e: 10.0**e),
    n=st.one_of(st.just(0.0), st.floats(-2.0, 3.0).map(lambda e: 10.0**e)),
)


def closed_form_applies(p, omega_max=100.0):
    """Whether the coth dp^2 is taken in closed form rather than by quadrature."""
    fr = _fractions(p, drift_modes(p))
    return fr is not None and max(map(abs, fr.a)) < 0.5 * omega_max


@pytest.fixture
def quad_calls(monkeypatch):
    """The (a, b) limits of each adaptive quadrature that spectra runs."""
    calls = []

    def counted(f, a, b, **kwargs):
        calls.append((a, b))
        return quad(f, a, b, **kwargs)

    monkeypatch.setattr(spectra, "quad", counted)
    return calls


@pytest.fixture
def quad_nodes(monkeypatch):
    """(power, w, value) of each node QUADPACK evaluates, in the moment of w^power S_q."""
    nodes, powers = [], []
    quad_moment = spectra._quad_moment

    def moment(params, poles, noise_model, power, cutoff, rtol):
        powers.append(power)
        return quad_moment(params, poles, noise_model, power, cutoff, rtol)

    def recorded(f, a, b, **kwargs):
        def node(w):
            value = f(w)
            nodes.append((powers[-1], w, value))
            return value

        return quad(node, a, b, **kwargs)

    monkeypatch.setattr(spectra, "_quad_moment", moment)
    monkeypatch.setattr(spectra, "quad", recorded)
    return nodes


def closure_spectrum(grid, p, model):
    """S_q by the oracle's scalar closure, one frequency at a time.

    The oracle of noise_spectrum's array expression: it stops at the
    first frequency where the closure raises, with the closure's
    message, its OverflowError typed as SingularResponse.
    """
    s_q = scalar_spectrum_oracle(p, model)
    values = []
    for w in grid.tolist():
        try:
            values.append(s_q(w))
        except OverflowError:
            raise SingularResponse(f"spectrum overflows at omega={w}") from None
    return values


def spectrum_outcome(fn, grid, p, model):
    """The values ``fn`` gives on the grid, or the message it raises."""
    try:
        return list(fn(np.array(grid), p, model))
    except SingularResponse as exc:
        return str(exc)


def float_outcome(fn, w):
    """``fn(w)`` as the hex of its bits, or the type and message of what it raises."""
    try:
        return fn(w).hex()
    except Exception as exc:
        return type(exc), str(exc)


# the smallest subnormal: x w underflows to 0 for every coth scale x < 1/2
TINY = 5e-324
# stable, with a denominator that underflows to 0 at w = 1 (|1/Q|^2 < 1e-323)
VANISHING = NormalizedParams(b=1e-150, phi=0, phi_nl=0, q_factor=1e162, n_t_i=1)


class TestArraySpectrum:
    @settings(max_examples=80)
    @given(
        p=stable_points,
        n=st.one_of(st.just(0.0), st.floats(0.0, 6.0).map(lambda e: 10.0**e)),
        ws=st.lists(st.one_of(st.floats(-50.0, 50.0), st.floats(-1.7e308, 1.7e308)),
                    max_size=20),
    )
    def test_matches_the_scalar_closure(self, p, n, ws):
        p = p.replace(n_t_i=n)
        assume(classify(p).stable)
        x = coth_scale(n)
        assert math.isinf(x) or x * TINY == 0.0  # the grid reaches the x w == 0 branch
        grid = [0.0, TINY, -TINY, 1.0, *ws]
        for model in ThermalNoiseModel:
            want = spectrum_outcome(closure_spectrum, grid, p, model)
            got = spectrum_outcome(noise_spectrum, grid, p, model)
            if isinstance(want, str):  # the same message at the same frequency
                assert got == want
            else:
                assert got == pytest.approx(want, rel=4 * np.finfo(float).eps, abs=0.0)

    @settings(max_examples=80)
    @given(
        p=stable_points,
        ws=st.lists(st.one_of(st.floats(-50.0, 50.0), st.floats(-1.7e308, 1.7e308)),
                    max_size=20),
    )
    def test_float_integrand_is_the_oracle_bit_for_bit(self, p, ws):
        # the quadratures' integrand: the oracle's float, or its exception and message
        assume(classify(p).stable)
        for model in ThermalNoiseModel:
            s_q = scalar_spectrum_oracle(p, model)
            for w in [0.0, TINY, -TINY, *ws]:
                want = float_outcome(s_q, w)
                assert float_outcome(lambda w: _float_spectrum(w, p, model), w) == want

    @pytest.mark.parametrize("model", list(ThermalNoiseModel))
    @pytest.mark.parametrize("p, w, raised", [
        (VANISHING, 1.0, SingularResponse),   # the denominator vanishes
        (VANISHING, 1e300, OverflowError),    # the value is nan
        (FIG2, 1e200, OverflowError),         # (b w)^2 overflows
    ])
    def test_float_integrand_raises_what_the_oracle_raises(self, p, w, raised, model):
        want = float_outcome(scalar_spectrum_oracle(p, model), w)
        assert want[0] is raised
        assert float_outcome(lambda w: _float_spectrum(w, p, model), w) == want

    @pytest.mark.parametrize("model", list(ThermalNoiseModel))
    @pytest.mark.parametrize("p, grid, message", [
        (VANISHING, [0.5, 1.0, 1e300], "spectrum denominator vanishes at omega=1.0"),
        (VANISHING, [0.5, 1e300, 1.0], "spectrum overflows at omega=1e+300"),
        (FIG2, [0.5, -1.7e308, 1e300], "spectrum overflows at omega=-1.7e+308"),
    ])
    def test_first_failing_frequency_names_the_error(self, p, grid, message, model):
        assert spectrum_outcome(closure_spectrum, grid, p, model) == message
        assert spectrum_outcome(noise_spectrum, grid, p, model) == message


class TestResidueRoute:
    @settings(max_examples=60)
    @given(p=stable_points)
    def test_matches_adaptive_quadrature(self, p):
        assume(classify(p).stable)
        # where poles nearly coincide the route is itself a quadrature, to 1e-8
        tol = 1e-10 if _fractions(p, drift_modes(p)) is not None else 1e-8
        for model in ThermalNoiseModel:
            flat = model is ThermalNoiseModel.MARKOV_FLAT
            # the oracle runs to 1e-12: at rtol 1e-10 it was itself 2.1e-10
            # off a 40-digit dq^2 at b=1, phi=6.4e-8, phi_nl=0.3, Q=1e7
            try:
                want_q = quad_oracle(p, model, 0, rtol=1e-12)
            except QuadratureFailure:  # the oracle's limit, not the sum's
                continue
            res = integrate_variances(p, model)
            assert rel(res.dq2, want_q) <= tol
            assert position_variance(p, model)[0] == res.dq2
            try:
                want_p = quad_oracle(p, model, 2, rtol=1e-12)
            except QuadratureFailure:
                continue
            tol_p = tol if flat or closed_form_applies(p) else 1e-8
            assert rel(res.dp2, want_p) <= tol_p

    @pytest.mark.parametrize("n_t_i", [0.0, 1e6, 1e12, 1e50, 1e150])
    @pytest.mark.parametrize("point", [FIG2, DEEP], ids=["fig2", "deep"])
    def test_coth_momentum_variance_over_occupancies(self, point, n_t_i):
        # the Bose tail beyond the cutoff reaches w ~ 20/x = 40 n_t_i
        p = point.replace(n_t_i=n_t_i)
        want = quad_oracle(p, ThermalNoiseModel.QUANTUM_COTH, 2, rtol=1e-12)
        assert rel(integrate_variances(p).dp2, want) <= 1e-10

    # strongly coupled points with the cavity feature phi/b at 0.45, 0.55, 1
    # and 2 times the cutoff: the closed form holds while every pole has
    # |a_j| < omega_max/2, and the quadrature takes over from there
    @pytest.mark.parametrize("ratio, closed", [(0.45, True), (0.55, False),
                                               (1.0, False), (2.0, False)])
    @pytest.mark.parametrize("b", [10.0, 100.0])
    def test_coth_momentum_variance_near_the_cutoff(self, quad_calls, ratio, closed, b):
        phi = ratio * 100.0 * b
        p = NormalizedParams(b=b, phi=phi, phi_nl=0.3 * phi, q_factor=1e4, n_t_i=100.0)
        assert closed_form_applies(p) == closed
        res = integrate_variances(p)
        assert (len(quad_calls) == 0) == closed
        want = quad_oracle(p, ThermalNoiseModel.QUANTUM_COTH, 2, rtol=1e-12)
        assert rel(res.dp2, want) <= (1e-10 if closed else 1e-8)

    @pytest.mark.parametrize(
        "p",
        [FIG2, DEEP, FIG2.replace(n_t_i=0.0), DEEP.replace(n_t_i=1e6)],
        ids=["fig2", "deep", "zero_temperature", "hot"],
    )
    def test_coth_variances_run_no_quadrature(self, monkeypatch, p):
        # at a regular point with its poles well inside the cutoff both coth
        # variances are closed forms; a fallback to quad here is a regression
        def refuse(*args, **kwargs):
            raise AssertionError("adaptive quadrature at a regular point")

        monkeypatch.setattr(spectra, "quad", refuse)
        res = integrate_variances(p, ThermalNoiseModel.QUANTUM_COTH)
        assert res.dq2 > 0 and res.dp2 > 0

    def test_huge_occupancy_matches_mpmath(self):
        # the adaptive quadrature overflows here; the closed form does not.
        # Reference: 40-digit mpmath quadrature of w^2 S_q on [0, 100]
        p = FIG2.replace(n_t_i=1e300)
        assert rel(integrate_variances(p).dp2, 3.0002229167063407e297) <= 1e-13
        with pytest.raises(QuadratureFailure, match="integrand overflows"):
            quad_oracle(p, ThermalNoiseModel.QUANTUM_COTH, 2)

    # up to the largest valid occupancy (2 n_t_i + 1 finite)
    @pytest.mark.parametrize("n_t_i", [1e307, 8.98e307])
    def test_occupancy_past_the_checked_range_is_typed(self, n_t_i):
        with pytest.raises(QuadratureFailure):
            integrate_variances(FIG2.replace(n_t_i=n_t_i))

    # Q up to 1e5 only: against 40-digit residue sums the Lyapunov solve is
    # itself off by 1.4e-10 at Q = 1e6 and 1.1e-9 at Q = 1e7
    @settings(max_examples=60)
    @given(p=stable_points.filter(lambda p: p.q_factor <= 1e5))
    def test_flat_bath_matches_lyapunov(self, p):
        assume(classify(p).stable)
        res = integrate_variances(p, ThermalNoiseModel.MARKOV_FLAT)
        lyap = steady_variances(build_system(p))
        assert rel(res.dq2, lyap.dq2) <= 1e-10
        assert rel(res.dp2, lyap.dp2) <= 1e-10

    # the benchmark's degenerate sweep row: the cavity pair coincides at phi = 0
    # and the closest poles separate like sqrt(phi). Up to phi = 1e-15 the
    # cavity is decoupled to within round-off (three poles); at 1e-12 and
    # 1e-8 it is not, and the poles are not separated (quadrature)
    @pytest.mark.parametrize("phi", [0.0, 5.6e-17, 1e-15, 1e-12, 1e-8, 1e-6])
    @pytest.mark.parametrize("model", list(ThermalNoiseModel))
    def test_nearly_coincident_poles(self, phi, model):
        p = COINCIDENT.replace(phi=phi)
        assert (_fractions(p, drift_modes(p)) is None) == (phi in (1e-12, 1e-8))
        res = integrate_variances(p, model)
        assert rel(res.dq2, quad_oracle(p, model, 0)) <= 1e-10
        if model is ThermalNoiseModel.MARKOV_FLAT:
            assert rel(res.dp2, quad_oracle(p, model, 2)) <= 1e-10

    @pytest.mark.parametrize("p, model, omega_max", QUADRATURE_POINTS.values(),
                             ids=QUADRATURE_POINTS)
    def test_the_quadrature_integrates_the_oracle(self, quad_nodes, p, model, omega_max):
        # at each node of both moments: the oracle's S_q, times w^2 for dp^2
        integrate_variances(p, model, omega_max=omega_max)
        assert {power for power, _, _ in quad_nodes} == {0, 2}
        s_q = scalar_spectrum_oracle(p, model)
        for power, w, value in quad_nodes:
            assert value == (w * w * s_q(w) if power else s_q(w)), (power, w)

    @pytest.mark.parametrize("omega_max", [3.0, 100.0, 200.0])
    @pytest.mark.parametrize("phi", [1e-10, 0.0])
    def test_coth_cutoff_where_poles_coincide(self, quad_calls, phi, omega_max):
        # at phi = 1e-10 the poles are not separated and the cavity is not
        # decoupled: the coth dp^2 is the quadrature, cut off at omega_max
        # itself, also above the split point of the convergent moments. At
        # phi = 0 it is the three poles' sum, with the same cutoff
        p = CUTOFF_COINCIDENT.replace(phi=phi)
        quadrature = phi != 0.0
        assert (_fractions(p, drift_modes(p)) is None) == quadrature
        res = integrate_variances(p, ThermalNoiseModel.QUANTUM_COTH, omega_max=omega_max)
        if quadrature:
            assert omega_max in [b for _, b in quad_calls]
        else:
            assert quad_calls == []
        want = quad_oracle(p, ThermalNoiseModel.QUANTUM_COTH, 2, rtol=1e-12,
                           omega_max=omega_max)
        assert rel(res.dp2, want) <= (1e-8 if quadrature else 1e-10)

    @settings(max_examples=60)
    @given(p=stable_points.filter(lambda p: p.q_factor <= 1e5),
           phi=st.sampled_from([0.0, 1e-16, -1e-16]))
    def test_decoupled_cavity_runs_no_quadrature(self, p, phi):
        # at phi ~ 0 both variances under both baths are sums over three poles
        p = p.replace(phi=phi)
        assume(classify(p).stable)

        def refuse(*args, **kwargs):
            raise AssertionError("adaptive quadrature where the cavity decouples")

        for model in ThermalNoiseModel:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(spectra, "quad", refuse)
                res = integrate_variances(p, model)
            assert rel(res.dq2, quad_oracle(p, model, 0, rtol=1e-12)) <= 1e-10
            assert rel(res.dp2, quad_oracle(p, model, 2, rtol=1e-12)) <= 1e-10

    @pytest.mark.parametrize("q_factor, dq2", [
        (1e6, 300001.1499999249889352642),
        (1e7, 3000001.149999992388978067),
    ])
    def test_decoupled_cavity_at_high_q(self, q_factor, dq2):
        # the references are 40-digit mpmath sums over the three poles;
        # the quadrature is off by 5.4e-11 and 3.7e-10 here
        p = NormalizedParams(b=1, phi=0, phi_nl=0.3, q_factor=q_factor, n_t_i=0)
        assert rel(integrate_variances(p, ThermalNoiseModel.MARKOV_FLAT).dq2, dq2) <= 1e-13

    @pytest.mark.parametrize("model", list(ThermalNoiseModel))
    def test_decoupled_cavity_at_a_huge_occupancy(self, model):
        # the cavity pole carries no thermal weight, so its K, not finite where
        # z = x/(pi b) underflows, is not read; the quadrature overflows here
        p = NormalizedParams(b=1e100, phi=0, phi_nl=0.3, q_factor=1e4, n_t_i=1e300)
        assert rel(integrate_variances(p, model).dq2, 2e300) <= 1e-10

    @pytest.mark.parametrize("p", [FIG2, DEEP.replace(phi=0.0)], ids=["fig2", "decoupled"])
    def test_coth_variances_take_psi_once(self, monkeypatch, p):
        # dq^2 and dp^2 share psi at the same poles
        calls = []
        digamma = spectra._digamma

        def counted(z):
            calls.append(z)
            return digamma(z)

        monkeypatch.setattr(spectra, "_digamma", counted)
        integrate_variances(p, ThermalNoiseModel.QUANTUM_COTH)
        assert len(calls) == 1

    @pytest.mark.parametrize("model", list(ThermalNoiseModel))
    def test_bare_oscillator_at_a_tiny_bandwidth_ratio(self, model):
        # at phi = phi_nl = 0 S_q does not depend on b; classify's
        # determinant used to overflow at b below about 1e-62
        p = NormalizedParams(b=1, phi=0, phi_nl=0, q_factor=1e4, n_t_i=0)
        ref, tiny = integrate_variances(p, model), integrate_variances(p.replace(b=1e-100), model)
        assert abs(tiny.dq2 - ref.dq2) + abs(tiny.dp2 - ref.dp2) <= tiny.quadrature_error

    @pytest.mark.parametrize("b", [0.01, 1e-100])
    def test_weightless_cavity_pole_beyond_the_cutoff_keeps_the_pole_sum(self, b):
        # at phi = 0 the decoupled cavity pole 1/b carries no thermal weight,
        # so it may lie past W/2 = 50 without sending the coth dp^2 to
        # quadrature, which is off by 4e-13 here and bounds that by 1.5e-4.
        # Reference: 40-digit mpmath quadrature of w^2 S_q on [0, 100]
        p = NormalizedParams(b=b, phi=0, phi_nl=0, q_factor=1e4, n_t_i=0)
        res = integrate_variances(p, ThermalNoiseModel.QUANTUM_COTH)
        assert rel(res.dp2, 1.000261333134364292305) <= 1e-14
        assert res.quadrature_error <= 1e-13

    @pytest.mark.parametrize("n_t_i", [0.0, 1e-12, 1.0, 1e3])
    def test_matsubara_sum_and_its_zero_temperature_limit(self, n_t_i):
        # the psi form for n_t_i > 0, the log form at n_t_i = 0
        p = FIG2.replace(n_t_i=n_t_i)
        got = position_variance(p, ThermalNoiseModel.QUANTUM_COTH)[0]
        assert rel(got, quad_oracle(p, ThermalNoiseModel.QUANTUM_COTH, 0)) <= 1e-10

    @pytest.mark.parametrize("point, dq2, dp2", [
        # the largest error-to-bound ratio (0.08) over 150 random points
        (dict(b=0.8640737530092529, phi=0.44786400839312984, phi_nl=0.23592529762997586,
              q_factor=13111.321085161555, n_t_i=7.295393597541269),
         2.8567978854222896076, 2.5250124490343784522),
        # and over 300 points beside 150 exceptional points of the drift
        (dict(b=0.36000192146367005, phi=0.06290622313760147, phi_nl=0.27329941625737086,
              q_factor=685302.306651566, n_t_i=3.475764434632965),
         25.812150573899813615, 25.026098336871720634),
    ])
    def test_roundoff_bound_covers_the_error(self, point, dq2, dp2):
        # the references are 40-digit mpmath residue sums
        res = integrate_variances(NormalizedParams(**point), ThermalNoiseModel.MARKOV_FLAT)
        err = abs(res.dq2 - dq2) + abs(res.dp2 - dp2)
        assert err <= res.quadrature_error <= 1e-11 * (dq2 + dp2)

    def test_decoupled_oscillator_is_exact_to_round_off(self):
        for n in (0.0, 3.0, 100.0):
            res = integrate_variances(bare(1e7, n), ThermalNoiseModel.MARKOV_FLAT)
            assert res.dq2 == pytest.approx(2 * n + 1, rel=1e-14)
            assert res.dp2 == pytest.approx(2 * n + 1, rel=1e-14)
            # the quadrature's breakpoints must reach the Lorentzian tails,
            # 13% of the weight beyond five half-widths
            flat = quad_oracle(bare(1e7, n), ThermalNoiseModel.MARKOV_FLAT, 0, rtol=1e-8)
            assert flat == pytest.approx(2 * n + 1, rel=1e-8)

    def test_cutoff_changes_only_coth_dp2(self):
        # only dp^2 under the coth weight depends on omega_max
        lo = integrate_variances(FIG2, ThermalNoiseModel.QUANTUM_COTH, omega_max=10.0)
        hi = integrate_variances(FIG2, ThermalNoiseModel.QUANTUM_COTH, omega_max=1000.0)
        assert lo.dq2 == hi.dq2
        assert lo.dp2 < hi.dp2

    def test_nan_integrand_is_a_quadrature_failure(self):
        # S_q overflows to nan at b = 1e100; handed to QUADPACK with
        # breakpoints, a nan integrand crashed the interpreter. The
        # quadrature is the fallback and the oracle of the closed forms
        p = NormalizedParams(b=1e100, phi=-3, phi_nl=0.0, q_factor=1.0000001, n_t_i=0.0)
        with pytest.raises(QuadratureFailure, match="integrand overflows"):
            quad_oracle(p, ThermalNoiseModel.QUANTUM_COTH, 2)
        # the decoupled oscillator's variances, from 30-digit mpmath
        # quadratures. The cavity poles, 1e-100 off the real axis, carry
        # no weight, so the pole-by-pole round-off bound stays at round-off
        res = integrate_variances(p)
        assert rel(res.dq2, 0.769800375700806) <= 1e-13
        assert rel(res.dp2, 3.316610536182234) <= 1e-13
        assert res.quadrature_error <= 1e-13


def scalar_rows(points, model, omega_max=100.0):
    """integrate_variances point by point: each result or the error it raises."""
    out = []
    for p in points:
        try:
            out.append(integrate_variances(p, model, omega_max))
        except Exception as exc:  # noqa: BLE001 - the error is the row's result
            out.append(exc)
    return out


def same_row(got, want):
    """A stacked row against the single call's: the same error class, or the same numbers."""
    if isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
        return
    assert rel(got.dq2, want.dq2) <= 1e-13 and rel(got.dp2, want.dp2) <= 1e-13
    # n_t_f = (dq2 + dp2 - 2)/4 cancels near the ground state, so its
    # difference is taken against the variances it comes from
    assert got.n_t_f == want.n_t_f or abs(got.n_t_f - want.n_t_f) <= 1e-13 * max(
        abs(want.n_t_f), (want.dq2 + want.dp2) / 4)
    assert abs(got.quadrature_error - want.quadrature_error) <= 1e-12 * want.quadrature_error
    assert (got.method, got.noise_model) == (want.method, want.noise_model)


def sweep_rows(base):
    """A detuning sweep through phi = 0, with rows that leave the stack.

    The sweep crosses to the heating side; the fixed rows are statically
    unstable (spring margin 1 + phi^2 - 2 phi phi_nl < 0), nearly
    coincident drift poles of a coupled cavity (quadrature), and a
    strongly coupled cavity pole at 0.55 of the cutoff (the coth dp^2 by
    quadrature).
    """
    star = optimal_detuning(base.b)
    phis = [*np.linspace(-0.5 * star, 2.0 * star, 9), 0.0, 1e-16, -1e-16, 1e-10]
    n = base.n_t_i
    return [base.replace(phi=float(phi)) for phi in phis] + [
        base.replace(phi=1.0, phi_nl=3.0),
        NormalizedParams(b=1, phi=1e-10, phi_nl=0.3, q_factor=1e4, n_t_i=n),
        NormalizedParams(b=10, phi=550.0, phi_nl=165.0, q_factor=1e4, n_t_i=n),
    ]


sweep_bases = st.builds(
    NormalizedParams,
    b=st.floats(0.3, 30.0),
    phi=st.just(0.0),
    phi_nl=st.floats(0.0, 1.0).map(lambda u: 0.3 * 1e-3 ** u),
    q_factor=st.floats(2.0, 7.0).map(lambda e: 10.0**e),
    n_t_i=st.one_of(st.just(0.0), st.floats(-2.0, 3.0).map(lambda e: 10.0**e),
                    st.floats(300.0, 308.0).map(lambda e: 10.0**e)),
)


class TestStackedRoute:
    """A sequence of points, integrated as one stack, against one call per point."""

    @settings(max_examples=40, deadline=None)
    @given(base=sweep_bases, omega_max=st.sampled_from([10.0, 100.0]))
    def test_stacked_rows_equal_single_calls(self, base, omega_max):
        points = sweep_rows(base)
        for model in ThermalNoiseModel:
            got = integrate_variances(points, model, omega_max)
            want = scalar_rows(points, model, omega_max)
            assert len(got) == len(points)
            for g, w in zip(got, want):
                same_row(g, w)
            for p, g in zip(points, position_variance(points, model)):
                try:
                    w = position_variance(p, model)
                except Exception as exc:  # noqa: BLE001
                    assert type(g) is type(exc)
                else:
                    assert rel(g[0], w[0]) <= 1e-13
                    assert abs(g[1] - w[1]) <= 1e-12 * w[1]

    def test_the_sweep_leaves_the_stack_where_the_single_call_would(self, quad_calls):
        # the stack runs the single call's quadratures, no more and no
        # fewer, and an unstable row is the single call's Unstable
        points = sweep_rows(FIG2)
        got = integrate_variances(points, ThermalNoiseModel.QUANTUM_COTH)
        assert isinstance(got[-3], Unstable) and str(got[-3]) == classify(points[-3]).reason
        stacked = list(quad_calls)
        assert stacked
        quad_calls.clear()
        scalar_rows(points, ThermalNoiseModel.QUANTUM_COTH)
        assert quad_calls == stacked

    def test_a_regular_sweep_is_one_stack(self, monkeypatch):
        # no point of a cooling-side sweep goes back to the single call
        def refuse(*args, **kwargs):
            raise AssertionError("a single call inside a regular sweep")

        points = [FIG2.replace(phi=phi) for phi in np.linspace(5.0, 20.0, 7)]
        want = scalar_rows(points, ThermalNoiseModel.QUANTUM_COTH)
        monkeypatch.setattr(spectra, "_moments", refuse)
        got = integrate_variances(points, ThermalNoiseModel.QUANTUM_COTH)
        for g, w in zip(got, want):
            same_row(g, w)

    def test_fewer_than_three_points_take_the_single_call(self, monkeypatch):
        calls = []
        moments = spectra._moments

        def counted(*args):
            calls.append(args)
            return moments(*args)

        monkeypatch.setattr(spectra, "_moments", counted)
        assert integrate_variances([]) == []
        assert integrate_variances((FIG2, DEEP)) == [integrate_variances(FIG2),
                                                     integrate_variances(DEEP)]
        assert len(calls) == 4
        integrate_variances([FIG2, DEEP, FIG2])
        assert len(calls) == 4

    def test_the_stack_counts_stable_points(self, monkeypatch):
        # three points of which two are stable are two single calls
        calls = []
        moments = spectra._moments

        def counted(*args):
            calls.append(args[0])
            return moments(*args)

        monkeypatch.setattr(spectra, "_moments", counted)
        got = integrate_variances([FIG2, FIG2.replace(phi=1.0, phi_nl=3.0), DEEP])
        assert calls == [FIG2, DEEP]
        assert isinstance(got[1], Unstable)
        assert [got[0], got[2]] == [integrate_variances(FIG2), integrate_variances(DEEP)]

    @pytest.mark.parametrize("model", list(ThermalNoiseModel))
    def test_each_point_is_classified_once(self, monkeypatch, model):
        # a stacked row, the phi = 0 twin, an unstable point, a quadrature
        # row and an overflowing drift: the last two go back to the single
        # call, which does not classify them again
        points = [FIG2, FIG2.replace(phi=0.0), FIG2.replace(phi=1.0, phi_nl=3.0),
                  NormalizedParams(b=1, phi=1e-10, phi_nl=0.3, q_factor=1e4, n_t_i=100),
                  OVERFLOWING_DRIFT, DEEP]
        calls = []

        def counted(p):
            calls.append(p)
            return classify(p)

        monkeypatch.setattr(spectra, "classify", counted)
        for integral in (integrate_variances, position_variance):
            calls.clear()
            got = integral(points, model)
            assert [calls.count(p) for p in points] == [1] * len(points)
            assert isinstance(got[2], Unstable) and isinstance(got[4], InvalidParams)

    @pytest.mark.parametrize("model", list(ThermalNoiseModel))
    def test_a_decoupled_row_of_a_stack_is_the_single_call(self, model):
        points = [NormalizedParams(b=3, phi=float(phi), phi_nl=0.05, q_factor=1e4, n_t_i=100)
                  for phi in np.linspace(-1.0, 3.0, 5)]
        got = integrate_variances(points, model)
        assert points[1].phi == 0.0
        assert got[1] == integrate_variances(points[1], model)
        assert position_variance(points, model)[1] == position_variance(points[1], model)

    @pytest.mark.parametrize("omega_max", [10.0, 100.0, 1e4])
    def test_occupancy_sweep_with_tails_of_every_length(self, omega_max):
        # the Bose tails of one stack span 1 to 700 panels, and none at n_t_i = 0
        points = [FIG2.replace(n_t_i=float(n)) for n in np.geomspace(1e-3, 1e306, 25)]
        points.append(FIG2.replace(n_t_i=0.0))
        got = integrate_variances(points, ThermalNoiseModel.QUANTUM_COTH, omega_max)
        for g, w in zip(got, scalar_rows(points, ThermalNoiseModel.QUANTUM_COTH, omega_max)):
            same_row(g, w)

    def test_long_tails_of_a_long_sweep_stay_small(self):
        # every row's Bose tail needs about 700 panels of 16 nodes at
        # n_t_i = 1e306; taken all at once, 60 such rows held about 50 MB
        # of temporaries, and one row alone holds about 0.2 MB
        base = FIG2.replace(n_t_i=1e306)
        points = [base.replace(phi=float(phi)) for phi in np.linspace(5.0, 20.0, 60)]
        tracemalloc.start()
        try:
            got = integrate_variances(points, ThermalNoiseModel.QUANTUM_COTH)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        for i in (0, 59):
            same_row(got[i], integrate_variances(points[i], ThermalNoiseModel.QUANTUM_COTH))

    @pytest.mark.parametrize("model", list(ThermalNoiseModel))
    def test_overflowing_drift_is_the_single_calls_error(self, model):
        huge = OVERFLOWING_DRIFT
        got = integrate_variances([FIG2, huge, DEEP], model)
        with pytest.raises(InvalidParams) as single:
            integrate_variances(huge, model)
        assert type(got[1]) is InvalidParams and str(got[1]) == str(single.value)
        same_row(got[0], integrate_variances(FIG2, model))
        same_row(got[2], integrate_variances(DEEP, model))

    def test_occupancy_past_the_checked_range_is_the_single_calls_error(self):
        points = [FIG2.replace(n_t_i=n) for n in (100.0, 1e307, 8.98e307)]
        got = integrate_variances(points)
        same_row(got[0], integrate_variances(points[0]))
        for g, p in zip(got[1:], points[1:]):
            with pytest.raises(QuadratureFailure) as single:
                integrate_variances(p)
            assert type(g) is QuadratureFailure and str(g) == str(single.value)

    @pytest.mark.parametrize("cutoff", [2.0, math.inf, math.nan])
    def test_bad_cutoff_rejects_the_whole_sequence(self, cutoff):
        with pytest.raises(InvalidParams):
            integrate_variances([FIG2, DEEP], omega_max=cutoff)


def test_error_bound_that_overflows_is_a_quadrature_failure():
    # a decoupled mirror at the top of the float range: dq2 = dp2 = 2 n_t_i + 1
    # = 1.7976e308, each with a finite round-off bound of 1.13e308, whose
    # sum overflows. The point raises; in a sweep its entry is the error
    p = NormalizedParams(b=15829.245451346016, phi=77.77649811531171, phi_nl=0.0,
                         q_factor=1e14, n_t_i=8.988e307)
    with pytest.raises(QuadratureFailure, match="error bound .* is not finite"):
        integrate_variances(p, ThermalNoiseModel.MARKOV_FLAT)
    fine = p.replace(n_t_i=100.0)
    first, second = integrate_variances([p, fine], ThermalNoiseModel.MARKOV_FLAT)
    assert isinstance(first, QuadratureFailure)
    assert second == integrate_variances(fine, ThermalNoiseModel.MARKOV_FLAT)
