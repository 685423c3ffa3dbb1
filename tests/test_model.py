"""Parameter model: normalization, steady-state cubic, stability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import constants

from optocool import (
    InvalidParams,
    NoStableBranch,
    NormalizedParams,
    PhysicalParams,
    classify,
    denormalize,
    drift_modes,
    normalize,
    solve_steady_state,
    thermal_occupancy,
)
from optocool.model import C_LIGHT, HBAR, K_B, POLE_SEPARATION_MIN, pole_separation


def si_params(**overrides):
    base = dict(
        omega_m=2 * math.pi * 1.0e7,
        kappa=2 * math.pi * 1.0e6,
        gamma=2 * math.pi * 1.0e3,
        mass=1.0e-12,
        cavity_length=1.0e-3,
        omega_c=2 * math.pi * constants.c / 1.064e-6,
        delta_c=2 * math.pi * 1.0e6,
        drive_intensity=1.0e10,
        temperature=0.1,
    )
    base.update(overrides)
    return PhysicalParams(**base)


class TestConstants:
    def test_si_constants_equal_scipy_values(self):
        assert (HBAR, K_B, C_LIGHT) == (constants.hbar, constants.k, constants.c)

    def test_si_conversions_are_bitwise_those_of_scipy_constants(self):
        p = si_params()
        assert p.coupling_constant == (p.omega_c / p.cavity_length) * math.sqrt(
            constants.hbar / (p.mass * p.omega_m))
        x = constants.hbar * p.omega_m / (constants.k * p.temperature)
        assert thermal_occupancy(p.temperature, p.omega_m) == 1.0 / math.expm1(x)
        assert denormalize(normalize(p)).omega_c == 2 * math.pi * constants.c / 1.064e-6


class TestThermalOccupancy:
    def test_zero_temperature_is_exact_zero(self):
        assert thermal_occupancy(0.0, 1e7) == 0.0

    def test_occupancy_one_at_ln2(self):
        omega = 1.0e8
        t = constants.hbar * omega / (constants.k * math.log(2.0))
        assert thermal_occupancy(t, omega) == pytest.approx(1.0, rel=1e-12)

    def test_occupancy_hundred(self):
        # invert n = 1/(exp(x) - 1) at n = 100: x = ln(1.01)
        omega = 2 * math.pi * 1.0e7
        t = constants.hbar * omega / (constants.k * math.log(1.01))
        assert thermal_occupancy(t, omega) == pytest.approx(100.0, rel=1e-10)

    def test_huge_ratio_underflows_to_zero(self):
        assert thermal_occupancy(1e-30, 1e10) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParams):
            thermal_occupancy(-1.0, 1e7)
        with pytest.raises(InvalidParams):
            thermal_occupancy(1.0, 0.0)


class TestParamTypes:
    def test_physical_invariants(self):
        with pytest.raises(InvalidParams):
            si_params(mass=-1.0)
        with pytest.raises(InvalidParams):
            si_params(gamma=2 * math.pi * 2.0e7)  # overdamped
        with pytest.raises(InvalidParams):
            si_params(drive_intensity=-1.0)

    def test_normalized_invariants(self):
        with pytest.raises(InvalidParams):
            NormalizedParams(b=0.0, phi=1, phi_nl=0, q_factor=100, n_t_i=0)
        with pytest.raises(InvalidParams):
            NormalizedParams(b=1, phi=1, phi_nl=-0.1, q_factor=100, n_t_i=0)
        with pytest.raises(InvalidParams):
            NormalizedParams(b=1, phi=1, phi_nl=0, q_factor=0.5, n_t_i=0)

    @pytest.mark.parametrize("field", ["b", "phi", "phi_nl", "q_factor", "n_t_i"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_normalized_rejects_non_finite(self, field, value):
        fields = dict(b=1.0, phi=1.0, phi_nl=0.1, q_factor=100.0, n_t_i=1.0)
        with pytest.raises(InvalidParams) as err:
            NormalizedParams(**{**fields, field: value})
        assert err.value.problems == [f"{field} must be finite, got {value}"]

    @pytest.mark.parametrize("field", ["omega_m", "delta_c", "drive_intensity", "temperature"])
    def test_physical_rejects_non_finite(self, field):
        with pytest.raises(InvalidParams) as err:
            si_params(**{field: math.nan})
        assert err.value.problems == [f"{field} must be finite, got nan"]

    def test_occupancy_keeps_its_variance_finite(self):
        # the mirror's initial variance 2 n_t_i + 1 overflows from 2**1023 on
        fields = dict(b=1.0, phi=1.0, phi_nl=0.1, q_factor=100.0)
        edge = math.ldexp(1.0, 1023)
        assert NormalizedParams(**fields, n_t_i=math.nextafter(edge, 0.0)).n_t_i < edge
        for n_t_i in (edge, 1e308, 1.7976931348623157e308):
            with pytest.raises(InvalidParams) as err:
                NormalizedParams(**fields, n_t_i=n_t_i)
            assert err.value.problems == [
                f"n_t_i must keep 2 n_t_i + 1 finite (n_t_i < 2**1023), got {n_t_i}"]

    def test_normalized_stores_plain_floats(self):
        p = NormalizedParams(
            b=np.float64(10), phi=np.float32(2.5), phi_nl=0, q_factor=100, n_t_i=np.int64(1)
        )
        assert [type(v) for v in vars(p).values()] == [float] * 5
        assert p.replace(phi=np.float64(3)).phi.__class__ is float

    def test_normalized_rejects_non_numbers(self):
        with pytest.raises(InvalidParams) as err:
            NormalizedParams(b="ten", phi=1, phi_nl=-1, q_factor=100, n_t_i=None)
        assert err.value.problems == [
            "b must be a real number, got 'ten'",
            "n_t_i must be a real number, got None",
            "phi_nl must be >= 0, got -1.0",
        ]

    def test_one_problem_per_field(self):
        with pytest.raises(InvalidParams) as err:
            NormalizedParams(b=-1, phi=math.nan, phi_nl=-2, q_factor=0.1, n_t_i=5)
        assert [p.split()[0] for p in err.value.problems] == ["b", "phi", "phi_nl", "q_factor"]

    def test_coupling_constant_scaling(self):
        p = si_params()
        heavier = si_params(mass=4.0 * p.mass)
        assert heavier.coupling_constant == pytest.approx(
            p.coupling_constant / 2.0, rel=1e-12
        )
        longer = si_params(cavity_length=2.0 * p.cavity_length)
        assert longer.coupling_constant == pytest.approx(
            p.coupling_constant / 2.0, rel=1e-12
        )


class TestSteadyState:
    def test_no_drive_single_stable_root(self):
        for phi_c in (-3.0, 0.0, 0.5, 2.0, 10.0):
            ss = solve_steady_state(phi_c, 0.0)
            assert len(ss.branches) == 1
            br = ss.branches[0]
            assert br.u == 0.0
            assert br.phi_eff == phi_c
            assert br.stable and not br.marginal

    def test_double_root_factorization(self):
        # u^3 - 4u^2 + 5u - 2 = (u - 1)^2 (u - 2): expanding confirms the
        # coefficients of u (1 + phi_c^2) = 5 and -2 phi_c = -4 at P = 2
        ss = solve_steady_state(2.0, 2.0)
        us = [br.u for br in ss.branches]
        assert us == pytest.approx([1.0, 1.0, 2.0], abs=1e-6)
        assert [br.marginal for br in ss.branches] == [True, True, False]
        assert [br.stable for br in ss.branches] == [False, False, True]
        assert ss.branches[2].phi_eff == pytest.approx(0.0, abs=1e-9)

    def test_residuals_below_tolerance(self):
        for phi_c in (0.5, 2.0, 5.0):
            for drive in (0.1, 2.0, 40.0):
                ss = solve_steady_state(phi_c, drive)
                for br in ss.branches:
                    resid = br.u * (1 + (phi_c - br.u) ** 2) - drive
                    assert abs(resid) < 1e-9 * max(1.0, drive)

    def test_monotone_below_threshold(self):
        # discriminant scan oracle: phi_c = 0.5 < sqrt(3) never folds
        for drive in np.linspace(0.01, 10.0, 40):
            assert len(solve_steady_state(0.5, float(drive)).branches) == 1

    def test_bistability_only_above_sqrt3(self):
        saw_bistable = False
        for phi_c in np.linspace(0.2, 3.0, 29):
            for drive in np.linspace(0.05, 6.0, 60):
                branches = solve_steady_state(float(phi_c), float(drive)).branches
                distinct = len({round(br.u, 6) for br in branches})
                if distinct == 3:
                    assert phi_c > math.sqrt(3.0)
                    saw_bistable = True
        assert saw_bistable

    def test_branch_count_odd_with_multiplicity(self):
        for phi_c in np.linspace(0.3, 2.9, 14):
            for drive in np.linspace(0.0, 5.0, 26):
                n = len(solve_steady_state(float(phi_c), float(drive)).branches)
                assert n in (1, 3)

    def test_middle_branch_unstable(self):
        ss = solve_steady_state(2.0, 1.9)  # inside the bistable window
        assert len(ss.branches) == 3
        assert not ss.branches[1].stable

    def test_negative_drive_rejected(self):
        with pytest.raises(InvalidParams):
            solve_steady_state(1.0, -0.5)

    def test_overflowing_cube_rejected(self):
        # 1 + phi_c^2 is finite here, phi_c^3 (the residual's scale) is not;
        # the CLI printed a raw OverflowError
        with pytest.raises(InvalidParams):
            solve_steady_state(1e103, 0.0)


class TestStabilityCheck:
    def test_resonant_drive(self):
        p = NormalizedParams(b=1, phi=0.0, phi_nl=5.0, q_factor=100, n_t_i=0)
        rep = classify(p)
        assert rep.spring_margin == pytest.approx(1.0)
        assert rep.stable and rep.reason == "stable"

    def test_blue_detuned_unstable(self):
        # a drift eigenvalue has Re = +0.29 although the spring margin is
        # positive (3.25), so only the Routh-Hurwitz determinant catches it
        p = NormalizedParams(b=1, phi=-0.5, phi_nl=2.0, q_factor=100, n_t_i=0)
        rep = classify(p)
        assert rep.spring_margin == pytest.approx(3.25)
        assert not rep.stable
        assert rep.reason.startswith("Routh-Hurwitz determinant")

    @pytest.mark.parametrize("b", [1e-62, 1e-100, 1e-300])
    def test_tiny_bandwidth_ratio_does_not_overflow(self, b):
        # unscaled, the determinant grows like 2/(Q b^5) and overflowed here;
        # behind its positive spring margin the blue-detuned point has a
        # mode growing at Re s = 50 (p(s)'s roots taken to 700 digits)
        assert classify(NormalizedParams(b=b, phi=0, phi_nl=0, q_factor=1e4, n_t_i=0)).stable
        rep = classify(NormalizedParams(b=b, phi=-1.0, phi_nl=1e2 / b, q_factor=100, n_t_i=0))
        assert rep.spring_margin > 0 and not rep.stable
        assert rep.reason.startswith("Routh-Hurwitz determinant")


class TestPoleSeparation:
    def test_gaps_are_nearest_neighbour_distances(self):
        gaps, separated = pole_separation([1j, -1j, 2.0 + 1j])
        assert gaps == [2.0, 2.0, 2.0] and separated

    def test_a_pair_closer_than_the_threshold_is_not_separated(self):
        close = 1.0 + 0.5 * POLE_SEPARATION_MIN
        assert not pole_separation([1.0, close, 5.0])[1]
        assert pole_separation([1.0, 1.0 + 2.0 * POLE_SEPARATION_MIN, 5.0])[1]

    def test_a_stack_is_tested_row_by_row(self):
        rows = [[1j, -1j, 2.0 + 1j], [1.0, 1.0 + 0.5 * POLE_SEPARATION_MIN, 5.0]]
        gaps, separated = pole_separation(np.array(rows))
        for row, g, sep in zip(rows, gaps, separated):
            want = pole_separation(row)
            assert g.tolist() == want[0] and sep == want[1]


class TestDriftModesStack:
    @settings(max_examples=40, deadline=None)
    @given(b=st.floats(0.05, 50.0), phi=st.floats(-20.0, 20.0), phi_nl=st.floats(0.0, 2.0),
           q=st.floats(1.5, 1e7))
    def test_rows_match_one_point(self, b, phi, phi_nl, q):
        points = [NormalizedParams(b=b, phi=x, phi_nl=phi_nl, q_factor=q, n_t_i=0)
                  for x in (phi, 0.0, 1e-10, -phi)]
        stack = drift_modes(points)
        assert stack.eigenvalues.shape == (4, 4)
        for row, p in enumerate(points):
            one = drift_modes(p)
            assert stack.separated[row] == one.separated
            assert stack.norm[row] == pytest.approx(one.norm, rel=1e-15)
            scale = max(map(abs, one.eigenvalues))
            for z in one.eigenvalues:
                assert min(abs(stack.eigenvalues[row] - z)) <= 1e-13 * scale

    def test_an_overflowing_row_is_left_unsolved(self):
        huge = NormalizedParams(b=6.347468412528946e-64, phi=0, phi_nl=3.2474854227788175e250,
                                q_factor=2.718398599618707e22, n_t_i=1)
        ok = NormalizedParams(b=2, phi=1, phi_nl=0.1, q_factor=1e4, n_t_i=0)
        stack = drift_modes([ok, huge])
        with pytest.raises(InvalidParams, match="drift matrix overflows"):
            drift_modes(huge)
        assert not math.isfinite(stack.norm[1]) and not stack.separated[1]
        assert np.isnan(stack.eigenvalues[1]).all()
        assert stack.separated[0] and np.isfinite(stack.eigenvalues[0]).all()


class TestNormalize:
    def test_undriven_cavity(self):
        p = si_params(drive_intensity=0.0)
        n = normalize(p)
        assert n.phi_nl == 0.0
        assert n.phi == pytest.approx(p.delta_c / p.kappa, rel=1e-12)

    def test_si_ratios(self):
        p = si_params()
        n = normalize(p)
        assert n.b == pytest.approx(10.0, rel=1e-12)
        assert n.q_factor == pytest.approx(1.0e4, rel=1e-12)

    def test_detuning_locked_to_mechanical_frequency(self):
        # choose the drive so that the working branch sits at u, then pick
        # delta_c so the dressed detuning lands exactly on Omega_m
        p0 = si_params(drive_intensity=0.0)
        b = p0.omega_m / p0.kappa
        u = 0.05
        drive_norm = u * (1.0 + b * b)
        g = p0.coupling_constant
        a_in_sq = drive_norm * p0.omega_m * p0.kappa**2 / (2 * g * g)
        p = si_params(delta_c=(b + u) * p0.kappa, drive_intensity=a_in_sq)
        n = normalize(p)
        assert n.phi == pytest.approx(b, rel=1e-9)
        assert n.phi_nl == pytest.approx(u, rel=1e-9)

    def test_scale_invariance_of_normalization(self):
        # rescaling all rates by s (and the drive by s^4, T by s) leaves the
        # dimensionless point, and hence the stability margin, unchanged
        p = si_params()
        n = normalize(p)
        s = 7.3
        scaled = PhysicalParams(
            omega_m=p.omega_m * s,
            kappa=p.kappa * s,
            gamma=p.gamma * s,
            mass=p.mass,
            cavity_length=p.cavity_length,
            omega_c=p.omega_c,
            delta_c=p.delta_c * s,
            drive_intensity=p.drive_intensity * s**4,
            temperature=p.temperature * s,
        )
        m = normalize(scaled)
        assert m.b == pytest.approx(n.b, rel=1e-12)
        assert m.phi == pytest.approx(n.phi, rel=1e-9)
        assert m.phi_nl == pytest.approx(n.phi_nl, rel=1e-9)
        assert m.n_t_i == pytest.approx(n.n_t_i, rel=1e-9)
        assert classify(m).spring_margin == pytest.approx(
            classify(n).spring_margin, rel=1e-9
        )

    @staticmethod
    def driven(phi_c, drive):
        """SI point with bare detuning phi_c and normalized drive P (b = 10, Q = 1e4)."""
        p0 = si_params(drive_intensity=0.0)
        g = p0.coupling_constant
        a_in_sq = drive * p0.omega_m * p0.kappa**2 / (2 * g * g)
        return si_params(delta_c=phi_c * p0.kappa, drive_intensity=a_in_sq)

    def test_statically_stable_branch_can_be_dynamically_unstable(self):
        # deep on the blue side the single branch has a positive slope, so
        # the cubic is statically stable and normalize returns it; the
        # static margin 1 + phi^2 + 2 phi phi_nl (-2.8 here) enters neither
        # that slope nor the drift. The point is unstable, and classify
        # finds its growing drift mode.
        phi_c, u = -0.45, 2.0
        drive = u * (1 + (phi_c - u) ** 2)
        ss = solve_steady_state(phi_c, drive)
        assert len(ss.branches) == 1 and ss.branches[0].stable
        n = normalize(self.driven(phi_c, drive))
        assert n.b == pytest.approx(10.0) and n.q_factor == pytest.approx(1e4)
        assert n.phi == pytest.approx(phi_c - u) and n.phi_nl == pytest.approx(u)
        for b in (1.0, 10.0):
            rep = classify(n.replace(b=b))
            assert not rep.stable and rep.spring_margin > 0
            assert rep.reason.startswith("Routh-Hurwitz determinant")
            assert rep.reason.endswith("a drift mode grows")

    def test_no_stable_branch(self):
        # at the triple root (phi_c = sqrt 3, P = 8/(3 sqrt 3)) the one
        # branch sits on the fold: it is marginal, and no branch is stable
        phi_c = math.sqrt(3.0)
        drive = 8.0 / (3.0 * math.sqrt(3.0))
        ss = solve_steady_state(phi_c, drive)
        assert ss.branches and all(br.marginal and not br.stable for br in ss.branches)
        with pytest.raises(NoStableBranch):
            normalize(self.driven(phi_c, drive))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "n",
        [
            NormalizedParams(b=10, phi=10, phi_nl=0.1, q_factor=1e4, n_t_i=100),
            NormalizedParams(b=2, phi=1.3, phi_nl=0.01, q_factor=500, n_t_i=0),
            NormalizedParams(b=0.7, phi=-0.2, phi_nl=0.05, q_factor=1e5, n_t_i=3.5),
        ],
    )
    def test_normalize_after_denormalize_is_identity(self, n):
        p = denormalize(n)
        ss = solve_steady_state(p.delta_c / p.kappa, p.drive_strength)
        branch = min(ss.branches, key=lambda br: abs(br.u - n.phi_nl))
        m = normalize(p, steady=ss, branch=branch)
        assert m.b == pytest.approx(n.b, rel=1e-12)
        assert m.phi == pytest.approx(n.phi, rel=1e-12, abs=1e-14)
        assert m.phi_nl == pytest.approx(n.phi_nl, rel=1e-12, abs=1e-16)
        assert m.q_factor == pytest.approx(n.q_factor, rel=1e-12)
        assert m.n_t_i == pytest.approx(n.n_t_i, rel=1e-12, abs=1e-16)


@settings(max_examples=200)
@given(
    b=st.floats(0.05, 100.0),
    ratio=st.floats(-1.0, 3.0),
    phi_nl=st.floats(0.0, 2.0),
    q_factor=st.floats(1.5, 1e7),
    n_t_i=st.floats(0.0, 1e4),
)
def test_normalize_denormalize_round_trip(b, ratio, phi_nl, q_factor, n_t_i):
    n = NormalizedParams(b=b, phi=b * ratio, phi_nl=phi_nl, q_factor=q_factor, n_t_i=n_t_i)
    p = denormalize(n)
    ss = solve_steady_state(p.delta_c / p.kappa, p.drive_strength)
    branch = min(ss.branches, key=lambda br: abs(br.u - n.phi_nl))
    m = normalize(p, steady=ss, branch=branch)
    scale = 1.0 + abs(n.phi) + n.phi_nl
    assert m.b == pytest.approx(n.b, rel=1e-12)
    assert m.phi == pytest.approx(n.phi, rel=1e-9, abs=1e-12 * scale)
    assert m.phi_nl == pytest.approx(n.phi_nl, rel=1e-9, abs=1e-12 * scale)
    assert m.q_factor == pytest.approx(n.q_factor, rel=1e-12)
    assert m.n_t_i == pytest.approx(n.n_t_i, rel=1e-9, abs=1e-300)
