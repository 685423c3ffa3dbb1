"""Frequency-domain spectra and variance integrals."""

import math

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
    effective_rates,
    effective_susceptibility,
    integrate_variances,
    noise_spectrum,
    optimal_detuning,
    position_variance,
    steady_variances,
)
from optocool.spectra import (
    _fractions,
    _quad_moment,
    _scalar_spectrum_fn,
    _spectrum_values,
)

FIG2 = NormalizedParams(b=10, phi=10, phi_nl=0.1, q_factor=1e4, n_t_i=100)
DEEP = NormalizedParams(b=10, phi=10, phi_nl=0.01, q_factor=1e5, n_t_i=100)


def bare(q_factor, n_t_i):
    return NormalizedParams(b=10, phi=5, phi_nl=0.0, q_factor=q_factor, n_t_i=n_t_i)


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


class TestNoiseSpectrum:
    def test_bare_thermal_lorentzian(self):
        p = bare(1e4, 7.0)
        w = np.linspace(-3, 3, 101)
        got = _spectrum_values(w, p, ThermalNoiseModel.MARKOV_FLAT)
        chi = 1.0 - w**2 - 1j * w / p.q_factor
        want = (2 * (2 * p.n_t_i + 1) / p.q_factor) / np.abs(chi) ** 2
        assert np.allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize(
        "model", [ThermalNoiseModel.MARKOV_FLAT, ThermalNoiseModel.QUANTUM_COTH]
    )
    def test_even_in_frequency(self, model):
        w = np.linspace(0.01, 5, 57)
        s_pos = _spectrum_values(w, FIG2, model)
        s_neg = _spectrum_values(-w, FIG2, model)
        assert np.allclose(s_pos, s_neg, rtol=1e-13)

    @pytest.mark.parametrize(
        "model", [ThermalNoiseModel.MARKOV_FLAT, ThermalNoiseModel.QUANTUM_COTH]
    )
    def test_nonnegative(self, model):
        w = np.linspace(-20, 20, 2001)
        for p in (FIG2, DEEP, bare(1e4, 0)):
            assert np.all(_spectrum_values(w, p, model) >= 0)

    def test_coth_zero_frequency_limit(self):
        s = _scalar_spectrum_fn(FIG2, ThermalNoiseModel.QUANTUM_COTH)
        assert s(0.0) == pytest.approx(s(1e-9), rel=1e-6)

    def test_zero_temperature_weight(self):
        p = NormalizedParams(b=10, phi=10, phi_nl=0.1, q_factor=1e4, n_t_i=0.0)
        s = _scalar_spectrum_fn(p, ThermalNoiseModel.QUANTUM_COTH)
        assert s(0.5) > 0 and s(0.0) >= 0

    def test_peak_tracks_effective_frequency_when_adiabatic(self):
        rates = effective_rates(DEEP)
        w = np.linspace(0.99, 1.01, 400001)
        s = _spectrum_values(w, DEEP, ThermalNoiseModel.QUANTUM_COTH)
        assert w[s.argmax()] == pytest.approx(rates.omega_eff_ratio, abs=1e-4)

    def test_peak_near_effective_frequency_fig2(self):
        # at these parameters the mode hybridization flattens the peak, so
        # the match is loose
        rates = effective_rates(FIG2)
        w = np.linspace(0.9, 1.1, 200001)
        s = _spectrum_values(w, FIG2, ThermalNoiseModel.QUANTUM_COTH)
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


class TestIntegrateVariances:
    def test_bare_oscillator_thermal_equilibrium(self):
        for n in (0.0, 3.0, 100.0):
            res = integrate_variances(bare(1e4, n), ThermalNoiseModel.MARKOV_FLAT)
            assert res.dq2 == pytest.approx(2 * n + 1, rel=1e-7)
            assert res.dp2 == pytest.approx(2 * n + 1, rel=1e-7)
            assert res.n_t_f == pytest.approx(n, rel=1e-6, abs=1e-7)

    def test_two_sided_integral_matches_doubled_half(self):
        s = _scalar_spectrum_fn(FIG2, ThermalNoiseModel.MARKOV_FLAT)
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
        for p in (FIG2, NormalizedParams(b=5, phi=5, phi_nl=0.1, q_factor=1e4, n_t_i=100)):
            lo = integrate_variances(p, ThermalNoiseModel.QUANTUM_COTH, omega_max=50.0)
            hi = integrate_variances(p, ThermalNoiseModel.QUANTUM_COTH, omega_max=200.0)
            assert abs(lo.dq2 - hi.dq2) / hi.dq2 < 1e-6

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


def quad_oracle(p, model, power, rtol=1e-10):
    """The adaptive quadrature the residue sums replaced, at a tight tolerance."""
    return _quad_moment(p, classify(p), model, power, 100.0, rtol)[0]


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


class TestResidueRoute:
    @settings(max_examples=60)
    @given(p=stable_points)
    def test_matches_adaptive_quadrature(self, p):
        assume(classify(p).stable)
        # where poles nearly coincide the route is itself a quadrature, to 1e-8
        tol = 1e-10 if _fractions(p) is not None else 1e-8
        for model in ThermalNoiseModel:
            flat = model is ThermalNoiseModel.MARKOV_FLAT
            try:
                want_q = quad_oracle(p, model, 0)
                want_p = quad_oracle(p, model, 2) if flat else None
            except QuadratureFailure:  # the oracle's limit, not the sum's
                continue
            res = integrate_variances(p, model)
            assert rel(res.dq2, want_q) <= tol
            assert position_variance(p, model)[0] == res.dq2
            if want_p is not None:
                assert rel(res.dp2, want_p) <= tol

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
    # and the closest poles separate like sqrt(phi)
    @pytest.mark.parametrize("phi", [0.0, 5.6e-17, 1e-15, 1e-12, 1e-8, 1e-6])
    @pytest.mark.parametrize("model", list(ThermalNoiseModel))
    def test_nearly_coincident_poles(self, phi, model):
        p = NormalizedParams(b=1.9206257319033062, phi=phi, phi_nl=0.09504903620523072,
                             q_factor=5562.406725036761, n_t_i=480.9521065078436)
        assert (_fractions(p) is None) == (phi <= 1e-8)
        res = integrate_variances(p, model)
        assert rel(res.dq2, quad_oracle(p, model, 0)) <= 1e-10
        if model is ThermalNoiseModel.MARKOV_FLAT:
            assert rel(res.dp2, quad_oracle(p, model, 2)) <= 1e-10

    @pytest.mark.parametrize("n_t_i", [0.0, 1e-12, 1.0, 1e3])
    def test_matsubara_sum_and_its_zero_temperature_limit(self, n_t_i):
        # the psi form for n_t_i > 0, the log form at n_t_i = 0
        p = FIG2.replace(n_t_i=n_t_i)
        got = position_variance(p, ThermalNoiseModel.QUANTUM_COTH)[0]
        assert rel(got, quad_oracle(p, ThermalNoiseModel.QUANTUM_COTH, 0)) <= 1e-10

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
        # D(w) overflows to nan at b = 1e100; handed to QUADPACK with
        # breakpoints, a nan integrand crashed the interpreter
        p = NormalizedParams(b=1e100, phi=-3, phi_nl=0.0, q_factor=1.0000001, n_t_i=0.0)
        s = _scalar_spectrum_fn(p, ThermalNoiseModel.QUANTUM_COTH)
        with pytest.raises(QuadratureFailure):
            s(0.5)
