"""Effective-oscillator layer: rates, closed-form variance, optimization."""

import math

import numpy as np
import pytest

from optocool import (
    ImaginaryFrequency,
    InvalidParams,
    InvalidRegime,
    NormalizedParams,
    OptimizationFailure,
    OptocoolError,
    QuadratureFailure,
    ThermalNoiseModel,
    Unstable,
    approx_variance,
    classify,
    decompose,
    drift_modes,
    effective_rates,
    integrate_variances,
    optimal_detuning,
    optimize_operating_point,
    regime_validity,
)
from optocool import adiabatic
from optocool.spectra import Method

FIG2 = NormalizedParams(b=10, phi=10, phi_nl=0.1, q_factor=1e4, n_t_i=100)
DEEP = NormalizedParams(b=10, phi=10, phi_nl=0.01, q_factor=1e5, n_t_i=100)


def shape_factor(b, phi):
    return 4 * phi * b / ((1 - b * b + phi * phi) ** 2 + 4 * b * b)


class TestEffectiveRates:
    def test_decoupled(self):
        p = NormalizedParams(b=3, phi=1, phi_nl=0.0, q_factor=100, n_t_i=0)
        rates = effective_rates(p)
        assert rates.omega_eff_ratio == 1.0
        assert rates.gamma_eff_ratio == 1.0

    def test_reference_point(self):
        # D(1) = 1 - 20i, so Im[1/D] = 20/401 and Re[1/D] = 1/401
        rates = effective_rates(FIG2)
        assert rates.gamma_eff_ratio == pytest.approx(1 + 400000 / 401, rel=1e-13)
        assert rates.omega_eff_ratio == pytest.approx(math.sqrt(399 / 401), rel=1e-13)
        assert rates.q_eff == pytest.approx(
            1e4 * math.sqrt(399 / 401) / (1 + 400000 / 401), rel=1e-12
        )

    def test_heating_side_negative_damping(self):
        p = NormalizedParams(b=10, phi=-10, phi_nl=0.1, q_factor=1e4, n_t_i=100)
        assert effective_rates(p).gamma_eff_ratio < 0

    def test_softened_spring_raises(self):
        p = NormalizedParams(b=0.5, phi=1.0, phi_nl=1.5, q_factor=100, n_t_i=0)
        with pytest.raises(ImaginaryFrequency):
            effective_rates(p)

    def test_overflowing_closed_form_raises(self):
        # 2 phi phi_nl overflows, so the rates would be nan
        p = NormalizedParams(b=1, phi=1e200, phi_nl=1e200, q_factor=10, n_t_i=0)
        with pytest.raises(InvalidParams):
            effective_rates(p)

    def test_cooling_heating_sign(self):
        for b in (0.5, 2.0, 10.0):
            cold = NormalizedParams(b=b, phi=b, phi_nl=0.05, q_factor=1e4, n_t_i=1)
            hot = NormalizedParams(b=b, phi=-0.1, phi_nl=0.001, q_factor=1e4, n_t_i=1)
            assert effective_rates(cold).gamma_eff_ratio > 1.0
            assert effective_rates(hot).gamma_eff_ratio < 1.0


class TestApproxVariance:
    def test_decoupled_thermal(self):
        p = NormalizedParams(b=3, phi=1, phi_nl=0.0, q_factor=100, n_t_i=12.5)
        res = approx_variance(p)
        assert res.dq2 == pytest.approx(2 * 12.5 + 1, rel=1e-13)
        assert res.dp2 == res.dq2
        assert res.method is Method.ADIABATIC

    def test_reference_point_term_by_term(self):
        # (2n+1 + 2 phi_nl Q (1+b^2+phi^2)/|D(1)|^2) / (Gamma_eff/Gamma)
        want = (201 + 2e3 * 201 / 401) / (1 + 400000 / 401)
        res = approx_variance(FIG2)
        assert res.dq2 == pytest.approx(want, rel=1e-13)
        assert res.n_t_f == pytest.approx((want - 1) / 2, rel=1e-12)

    def test_heating_raises(self):
        p = NormalizedParams(b=10, phi=-10, phi_nl=0.1, q_factor=1e4, n_t_i=100)
        with pytest.raises(Unstable):
            approx_variance(p)

    def test_matches_exact_within_ten_percent_when_valid(self):
        assert regime_validity(DEEP).adiabatic_ok
        exact = integrate_variances(DEEP, ThermalNoiseModel.QUANTUM_COTH)
        approx = approx_variance(DEEP)
        assert abs(approx.dq2 - exact.dq2) / exact.dq2 < 0.1


class TestDecomposition:
    def test_reference_values(self):
        dec = decompose(FIG2)
        assert dec.f == pytest.approx(400 / 401, rel=1e-13)
        assert dec.dq2_radiation == pytest.approx(201 / 200, rel=1e-13)
        assert dec.eta == pytest.approx(400000 / 400401, rel=1e-13)
        assert dec.dq2_thermal == 201.0

    def test_rewrite_is_exact(self):
        # the eta-decomposition is an algebraic rearrangement of the
        # closed-form variance, so they agree to machine precision
        rng = [
            (b, phi, phi_nl, q, n)
            for b in (0.5, 2.0, 10.0)
            for phi in (0.3, 1.0, 2 * b)
            for phi_nl in (1e-4, 0.05, 0.3)
            for q in (100.0, 1e5)
            for n in (0.0, 100.0)
        ]
        for b, phi, phi_nl, q, n in rng:
            p = NormalizedParams(b=b, phi=phi, phi_nl=phi_nl, q_factor=q, n_t_i=n)
            try:
                ad = approx_variance(p)
            except (Unstable, ImaginaryFrequency):
                continue
            dec = decompose(p)
            assert dec.dq2 == pytest.approx(ad.dq2, rel=1e-12)

    def test_weak_coupling_limit(self):
        p = NormalizedParams(b=10, phi=10, phi_nl=1e-9, q_factor=100, n_t_i=20)
        dec = decompose(p)
        assert dec.eta < 1e-4
        assert dec.dq2 == pytest.approx(dec.dq2_thermal, rel=1e-3)

    def test_radiation_floor(self):
        for b in (1.0, 5.0, 50.0):
            for phi in (0.2, b, 3 * b):
                p = NormalizedParams(b=b, phi=phi, phi_nl=0.01, q_factor=1e4, n_t_i=0)
                assert decompose(p).dq2_radiation >= 1.0
        # at phi = b the floor is 1 + 1/(2 b^2)
        p = NormalizedParams(b=50, phi=50, phi_nl=0.01, q_factor=1e4, n_t_i=0)
        assert decompose(p).dq2_radiation == pytest.approx(1 + 1 / 5000, rel=1e-12)

    def test_wrong_side_rejected(self):
        p = NormalizedParams(b=10, phi=-1.0, phi_nl=0.01, q_factor=1e4, n_t_i=0)
        with pytest.raises(InvalidRegime):
            decompose(p)

    def test_reference_efficiency(self):
        assert decompose(FIG2).eta == pytest.approx(0.99900, abs=2e-5)


class TestOptimalDetuning:
    def test_reference_values(self):
        assert optimal_detuning(1.0) == pytest.approx(
            math.sqrt(2 * math.sqrt(3) / 3), rel=1e-13
        )
        assert optimal_detuning(10.0) == pytest.approx(10.000124375, rel=1e-9)

    def test_large_bandwidth_limit(self):
        for b in (1e2, 1e4, 1e6):
            assert optimal_detuning(b) / b == pytest.approx(1.0, rel=1e-3 / b)

    def test_maximizes_shape_factor(self):
        for b in (0.5, 1.0, 2.0, 5.0, 10.0):
            star = optimal_detuning(b)
            grid = np.arange(1e-3, 2 * b + 10, 1e-3)
            vals = shape_factor(b, grid)
            assert shape_factor(b, star) >= vals.max() - 1e-12


class TestRegimeValidity:
    def test_fig3_borderline_flagged(self):
        rep = regime_validity(FIG2)
        assert rep.gamma_eff_over_gamma == pytest.approx(998.506, rel=1e-5)
        assert rep.gamma_eff_over_kappa == pytest.approx(0.9985, rel=1e-5)
        assert not rep.adiabatic_ok

    def test_uncoupled_not_adiabatic(self):
        p = NormalizedParams(b=10, phi=10, phi_nl=0.0, q_factor=1e4, n_t_i=1)
        rep = regime_validity(p)
        assert rep.gamma_eff_over_gamma == 1.0
        assert not rep.adiabatic_ok

    def test_breakdown_parameter(self):
        p = NormalizedParams(b=40, phi=40, phi_nl=0.1, q_factor=1e6, n_t_i=1)
        rep = regime_validity(p)
        assert rep.phi_nl_omega_over_2kappa == pytest.approx(2.0)
        assert not rep.adiabatic_ok

    def test_deep_adiabatic_ok(self):
        assert regime_validity(DEEP).adiabatic_ok


class TestOptimizer:
    def test_no_coupling_returns_initial_occupancy(self):
        opt = optimize_operating_point(
            [2.0, 6.0, 10.0], phi_nl=0.0, q_factor=1e4, n_t_i=100.0,
            noise_model=ThermalNoiseModel.MARKOV_FLAT,
        )
        assert opt.n_t_f_min == pytest.approx(100.0, abs=1e-5)

    def test_single_point_matches_brute_force(self):
        opt = optimize_operating_point(
            [10.0], phi_nl=0.1, q_factor=1e4, n_t_i=100.0,
            noise_model=ThermalNoiseModel.QUANTUM_COTH,
        )
        phis = np.arange(8.0, 12.0, 0.02)
        best = min(
            phis,
            key=lambda phi: integrate_variances(
                NormalizedParams(b=10, phi=float(phi), phi_nl=0.1,
                                 q_factor=1e4, n_t_i=100),
                ThermalNoiseModel.QUANTUM_COTH,
            ).n_t_f,
        )
        assert opt.b_opt == 10.0
        assert opt.phi_opt == pytest.approx(best, abs=0.05)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("noise_model", list(ThermalNoiseModel))
    def test_search_leaves_the_grid_edge(self, noise_model):
        # of the 9 grid detunings at b = 0.5 and b = 1 only the lowest at
        # b = 0.5, phi*(0.5)/2, is stable, so every refinement probe inside
        # the grid scores inf; n_t_f keeps falling below that edge, and the
        # search steps outward to the minimum near 0.2125 (n_t_f 5.167
        # against 19.87 at the edge)
        grid = {b: optimal_detuning(b) * np.geomspace(0.5, 2.0, 9) for b in (0.5, 1.0)}
        stable = [
            (b, phi) for b, phis in grid.items() for phi in phis
            if classify(NormalizedParams(b=b, phi=float(phi), phi_nl=1.5,
                                         q_factor=100, n_t_i=20)).stable
        ]
        assert stable == [(0.5, grid[0.5][0])]
        opt = optimize_operating_point(
            [0.5, 1.0], phi_nl=1.5, q_factor=100, n_t_i=20.0, noise_model=noise_model,
        )
        edge = integrate_variances(
            NormalizedParams(b=0.5, phi=float(grid[0.5][0]), phi_nl=1.5, q_factor=100,
                             n_t_i=20.0),
            noise_model,
        ).n_t_f
        assert opt.b_opt == 0.5
        assert opt.phi_opt == pytest.approx(0.2125, abs=2e-3)
        assert opt.n_t_f_min < 0.3 * edge

    def test_minimum_beyond_the_grid_edge(self):
        # the best grid detuning is the edge phi*/2 (n_t_f 5.2079), but
        # 0.45 phi* already gives 5.1720
        opt = optimize_operating_point(
            [0.5], phi_nl=1.0, q_factor=30, n_t_i=20.0,
            noise_model=ThermalNoiseModel.MARKOV_FLAT,
        )
        assert opt.phi_opt < 0.5 * optimal_detuning(0.5)
        assert opt.n_t_f_min <= 5.1721

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "b_range, phi_nl, q_factor, n_t_i",
        [
            ([10.0], 0.1, 1e4, 100.0),            # minimum inside the grid
            ([0.5], 1.0, 30, 20.0),               # minimum at the lowest grid point
            ([1.0], 1.0, 100, 1.0),               # minimum at the highest grid point
            ([2.0], 2.0, 30, 1.0),                # only the highest grid point is stable
            ([0.3, 1.0, 3.0], 0.5, 100, 10.0),
        ],
    )
    def test_never_worse_than_the_grid(self, b_range, phi_nl, q_factor, n_t_i):
        flat = ThermalNoiseModel.MARKOV_FLAT
        opt = optimize_operating_point(
            b_range, phi_nl=phi_nl, q_factor=q_factor, n_t_i=n_t_i, noise_model=flat,
        )
        grid_vals = []
        for phi in optimal_detuning(opt.b_opt) * np.geomspace(0.5, 2.0, 9):
            p = NormalizedParams(b=opt.b_opt, phi=float(phi), phi_nl=phi_nl,
                                 q_factor=q_factor, n_t_i=n_t_i)
            if classify(p).stable:
                grid_vals.append(integrate_variances(p, flat).n_t_f)
        assert opt.n_t_f_min <= min(grid_vals)

    def test_lock_phi_to_b(self):
        opt = optimize_operating_point(
            [3.0, 4.0, 5.0, 6.0, 7.0], phi_nl=0.1, q_factor=1e4, n_t_i=100.0,
            noise_model=ThermalNoiseModel.QUANTUM_COTH, lock_phi_to_b=True,
        )
        assert opt.phi_opt == opt.b_opt

    def test_all_unstable_raises(self):
        with pytest.raises(OptimizationFailure, match="no stable operating point"):
            optimize_operating_point(
                [10.0], phi_nl=30.0, q_factor=1e4, n_t_i=100.0,
                noise_model=ThermalNoiseModel.MARKOV_FLAT,
            )

    # every probe is stable but fails (its coth Bose tail is not finite),
    # or is no valid point (2 n_t_i + 1 overflows): the failure names why
    @pytest.mark.parametrize("n_t_i, cause", [
        (1e307, QuadratureFailure), (1e308, InvalidParams)])
    def test_no_scored_probe_names_the_last_error(self, n_t_i, cause):
        with pytest.raises(OptimizationFailure) as err:
            optimize_operating_point([10.0], phi_nl=0.1, q_factor=1e4, n_t_i=n_t_i)
        assert "no stable operating point" not in str(err.value)
        assert f"{cause.__name__}: " in str(err.value)
        assert type(err.value.__cause__) is cause

    def test_infinite_cutoff_rejected(self):
        with pytest.raises(InvalidParams, match="omega_max"):
            optimize_operating_point([10.0], 0.1, 1e4, 100.0, omega_max=math.inf)

    # the benchmark's two kinds of run (a 3-point b grid with phi free, a
    # locked 15-point list), points where only a grid edge is stable, and
    # a b that is not a valid point (an error, or with the lock a probe
    # that scores inf)
    @pytest.mark.parametrize("lock", [False, True])
    @pytest.mark.parametrize("noise_model", list(ThermalNoiseModel))
    @pytest.mark.parametrize("b_range, phi_nl, q_factor, n_t_i", [
        ([2.0, 3.0, 4.0], 0.05, 3e4, 80.0),
        (list(np.linspace(1.2, 14.3, 15)), 0.02, 1e4, 50.0),
        ([0.5, 1.0], 1.5, 100, 20.0),
        ([-1.0, 2.0], 0.05, 30, 0.0),
    ])
    def test_stacked_grids_equal_single_probes(self, monkeypatch, lock, noise_model,
                                               b_range, phi_nl, q_factor, n_t_i):
        # each detuning grid (and the locked list) is one stacked call; a
        # loop of single calls in its place gives the same operating point
        def single_probes(params, *args, **kwargs):
            if isinstance(params, NormalizedParams):
                return integrate_variances(params, *args, **kwargs)
            out = []
            for p in params:
                try:
                    out.append(integrate_variances(p, *args, **kwargs))
                except OptocoolError as exc:
                    out.append(exc)
            return out

        def run():
            try:
                return optimize_operating_point(b_range, phi_nl, q_factor, n_t_i,
                                                noise_model=noise_model, lock_phi_to_b=lock)
            except OptocoolError as exc:
                return type(exc), str(exc)

        stacked = run()
        monkeypatch.setattr(adiabatic, "integrate_variances", single_probes)
        single = run()
        if not isinstance(single, adiabatic.OperatingPoint):
            assert stacked == single
            return
        assert (stacked.b_opt, stacked.phi_opt) == (single.b_opt, single.phi_opt)
        assert stacked.n_t_f_min == pytest.approx(single.n_t_f_min, rel=1e-13)


# The paper's central claim: optimal self-cooling lies in the good-cavity
# regime, with the cavity bandwidth smaller than the mechanical frequency
# (b = Omega_m/kappa > 1) but larger than the effective mechanical damping.
# That damping is read from the exact drift modes, not from the closed-form
# Gamma_eff, which at phi_nl = 0.1 with Q >= 1e4 reaches 1.1 to 2.9 kappa
# there (README, "Strong coupling at the optimum"). The mechanical mode is
# the one with the larger weight (|S_qj|^2 + |S_pj|^2)/sum_i |S_ij|^2, and
# it decays at Gamma_m = 2|Re lambda_j|. Over this grid Gamma_m/kappa runs
# from 0.024 to 0.994; the closest cell (coth bath, Q = 1e5, phi_nl = 0.1,
# n_t_i = 10) sits just short of full hybridization, mechanical weight 0.503.
CLAIM_B = np.geomspace(0.25, 40.0, 17)


def mechanical_damping(p):
    """2|Re lambda| of the drift mode with the larger mechanical weight (Omega_m units)."""
    modes = drift_modes(p)
    power = np.abs(modes.vectors) ** 2
    j = int(np.argmax(power[:2].sum(axis=0) / power.sum(axis=0)))
    return 2.0 * abs(modes.eigenvalues[j].real)


@pytest.mark.parametrize("noise_model", list(ThermalNoiseModel))
@pytest.mark.parametrize("n_t_i", [10.0, 100.0])
@pytest.mark.parametrize("phi_nl", [0.003, 0.01, 0.03, 0.1])
@pytest.mark.parametrize("q_factor", [1e3, 1e4, 1e5])
def test_optimal_cooling_is_in_the_good_cavity_regime(q_factor, phi_nl, n_t_i, noise_model):
    opt = optimize_operating_point(CLAIM_B, phi_nl, q_factor, n_t_i, noise_model=noise_model)
    assert opt.b_opt > 1.0
    assert opt.n_t_f_min < n_t_i
    p = NormalizedParams(b=opt.b_opt, phi=opt.phi_opt, phi_nl=phi_nl, q_factor=q_factor,
                         n_t_i=n_t_i)
    assert mechanical_damping(p) < 1.0 / opt.b_opt  # Gamma_m < kappa
