"""Acceptance criteria: one test and one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from optocool import (
    NormalizedParams,
    build_system,
    decompose,
    effective_rates,
    evolve_covariance,
    homodyne_variance,
    integrate_variances,
    lyapunov_steady_state,
    matched_filter_pairs,
    optimal_detuning,
    output_variance_track,
    physicality_defect,
    regime_validity,
    steady_variances,
    thermal_covariance,
    two_time_correlations,
)
from optocool.cli import main
from optocool.dynamics import TwoTimeGrid
from optocool.spectra import ThermalNoiseModel

FIG3 = NormalizedParams(b=10, phi=10, phi_nl=0.1, q_factor=1e4, n_t_i=100)


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return ok


@pytest.fixture(scope="module")
def keystone():
    """27-point stable grid with both variance routes, shared by 3 and 8."""
    points = []
    for b in (2.0, 5.0, 10.0):
        for phi in (0.5 * b, b, 2.0 * b):
            for phi_nl in (0.01, 0.1, 0.3):
                p = NormalizedParams(
                    b=b, phi=phi, phi_nl=phi_nl, q_factor=1e4, n_t_i=100
                )
                lyap = steady_variances(build_system(p))
                spectral = integrate_variances(p, ThermalNoiseModel.MARKOV_FLAT)
                points.append((p, lyap, spectral))
    return points


@pytest.fixture(scope="module")
def fig3_run():
    sysm = build_system(FIG3)
    gamma_eff = effective_rates(FIG3).gamma_eff_ratio
    traj = evolve_covariance(
        sysm, thermal_covariance(FIG3), t_end=20.0 / gamma_eff, n_samples=401
    )
    return sysm, gamma_eff, traj


def test_criterion_1_fig1_minimum():
    t0 = time.monotonic()
    rows = []
    for b in np.linspace(1.0, 10.0, 19):
        p = NormalizedParams(b=b, phi=b, phi_nl=0.1, q_factor=1e4, n_t_i=100)
        rows.append((b, integrate_variances(p, ThermalNoiseModel.QUANTUM_COTH).n_t_f))
    elapsed = time.monotonic() - t0
    arr = np.array(rows)
    i = arr[:, 1].argmin()
    b_min, n_min = arr[i]
    ok = (
        abs(n_min - 0.15) <= 0.05
        and abs(b_min - 5.0) <= 1.0
        and elapsed < 30.0
    )
    assert report(
        1,
        ok,
        f"exact sweep min n_t_f = {n_min:.4f} at b = {b_min:g} "
        f"(want 0.15 +- 0.05 at 5 +- 1), {elapsed:.1f} s",
    )


def test_criterion_2_fig2_agreement():
    from optocool import approx_variance

    star = optimal_detuning(10.0)
    phis = np.linspace(0.5 * star, 2.0 * star, 61)
    exact, approx = [], []
    for phi in phis:
        p = NormalizedParams(b=10, phi=float(phi), phi_nl=0.1, q_factor=1e4, n_t_i=100)
        exact.append(integrate_variances(p, ThermalNoiseModel.QUANTUM_COTH).dq2)
        approx.append(approx_variance(p).dq2)
    exact, approx = np.array(exact), np.array(approx)
    worst = float(np.max(np.abs(exact - approx) / exact))
    d_exact = abs(phis[exact.argmin()] - star)
    d_approx = abs(phis[approx.argmin()] - star)
    ok = worst < 0.10 and d_exact <= 0.5 and d_approx <= 0.5
    assert report(
        2,
        ok,
        f"exact/adiabatic worst disagreement {worst:.3f} (< 0.10); minima at "
        f"|dphi| = {d_exact:.3f}, {d_approx:.3f} from phi* (<= 0.5)",
    )


def test_criterion_3_keystone_equivalence(keystone):
    t0 = time.monotonic()
    worst = 0.0
    for _p, lyap, spectral in keystone:
        worst = max(
            worst,
            abs(lyap.dq2 - spectral.dq2) / spectral.dq2,
            abs(lyap.dp2 - spectral.dp2) / spectral.dp2,
        )
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    assert report(
        3,
        ok,
        f"Lyapunov vs flat-bath spectrum on 27-point grid: worst rel "
        f"difference {worst:.2e} (<= 1e-6)",
    )


def test_criterion_4_argmax_closed_form():
    def shape_factor(b, phi):
        return 4 * phi * b / ((1 - b * b + phi * phi) ** 2 + 4 * b * b)

    worst = 0.0
    for b in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
        grid = np.arange(1e-3, 2 * b + 10.0, 1e-3)
        vals = shape_factor(b, grid)
        i = int(vals.argmax())
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        invphi = (math.sqrt(5) - 1) / 2
        a, c = lo, hi
        x1 = c - invphi * (c - a)
        x2 = a + invphi * (c - a)
        f1, f2 = shape_factor(b, x1), shape_factor(b, x2)
        while c - a > 1e-10:
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + invphi * (c - a)
                f2 = shape_factor(b, x2)
            else:
                c, x2, f2 = x2, x1, f1
                x1 = c - invphi * (c - a)
                f1 = shape_factor(b, x1)
        numeric = 0.5 * (a + c)
        worst = max(worst, abs(numeric - optimal_detuning(b)))
    ok = worst <= 1e-6
    assert report(
        4, ok, f"numeric argmax of f vs closed form: worst |dphi| = {worst:.2e}"
    )


def test_criterion_5_trivial_limits():
    from optocool import approx_variance

    p = NormalizedParams(b=10, phi=5, phi_nl=0.0, q_factor=1e4, n_t_i=100)
    want = 201.0
    spectral = integrate_variances(p, ThermalNoiseModel.MARKOV_FLAT)
    adia = approx_variance(p)
    lyap = steady_variances(build_system(p))
    devs = [
        abs(v - want) / want
        for v in (spectral.dq2, spectral.dp2, adia.dq2, adia.dp2, lyap.dq2, lyap.dp2)
    ]
    vac = lyapunov_steady_state(
        build_system(NormalizedParams(b=10, phi=5, phi_nl=0.0, q_factor=1e4, n_t_i=0))
    ).v
    vac_dev = float(np.max(np.abs(vac - np.eye(4))))
    ok = max(devs) < 1e-6 and vac_dev < 1e-12
    assert report(
        5,
        ok,
        f"uncoupled limit 2n+1 across all three methods: worst rel dev "
        f"{max(devs):.2e}; vacuum covariance dev {vac_dev:.2e}",
    )


def test_criterion_6_dynamics_convergence(fig3_run):
    sysm, gamma_eff, traj = fig3_run
    v_ss = lyapunov_steady_state(sysm).v
    final_err = float(np.linalg.norm(traj[-1].v - v_ss) / np.linalg.norm(v_ss))

    ts = np.array([s.t for s in traj])
    dq2 = np.array([s.v[0, 0] for s in traj])
    after = ts > 5.0 * FIG3.b / FIG3.q_factor  # 5/kappa in 1/Gamma units
    increments = np.diff(dq2[after])
    monotone = bool(np.all(increments <= 1e-3 * dq2[0]))
    decays = dq2[0] == pytest.approx(201.0) and dq2[-1] < 1.5

    track = output_variance_track(traj)
    peak = int(track[:, 0].argmax())
    shape_b = (
        track[0, 0] == pytest.approx(0.0, abs=1e-9)
        and 0 < peak < len(traj) - 1
        and track[peak, 0] > 0
        and track[-1, 0] < 0.2 * track[peak, 0]
    )
    ok = final_err < 1e-6 and monotone and decays and shape_b
    assert report(
        6,
        ok,
        f"V(20/Gamma_eff) rel distance to steady state {final_err:.2e}; "
        f"position variance decays 201 -> {dq2[-1]:.3f} monotonically; "
        f"output record rises then falls (peak {track[peak, 0]:.1f})",
    )


def test_criterion_7_homodyne():
    # (a) analytic two-exponential kernel against the closed-form integral
    gam = 998.5
    window = 16.0 / gam
    pairs, weights = matched_filter_pairs(window)
    c1, c2 = 2.4, 0.9
    t, tp = pairs[:, 0], pairs[:, 1]
    kern = c1 * gam * np.exp(-gam * (t + tp)) + c2 * gam * np.exp(
        -gam * np.abs(t - tp)
    )
    scale = FIG3.q_factor / FIG3.b
    grid = TwoTimeGrid(
        times=pairs, values=kern / scale, quadrature="x_out",
        demod_rate=0.0, params=FIG3, weights=weights,
    )
    kernel_err = abs(homodyne_variance(grid, gam).dx_m2 - (1 + c1 / 2 + c2))
    ok_a = kernel_err < 1e-9
    assert report(
        7, ok_a, f"(a) analytic-kernel homodyne error {kernel_err:.2e} (< 1e-9)"
    )

    # (b) simulated cooling transient against the closed-form estimate.
    # The estimate rests on the effective-oscillator quantities eta, n_f and
    # Gamma_eff, so it is checked where they hold (Gamma << Gamma_eff <<
    # kappa): FIG3 with phi_nl lowered tenfold. At FIG3 itself
    # Gamma_eff/kappa = 1 and the mirror and cavity exchange energy
    # coherently instead. E(t) = sqrt(2 lo) exp(-lo t) makes lo an amplitude
    # rate (pinned by (a)); the mirror's excess energy decays as
    # exp(-Gamma_eff t), so the matched oscillator has lo = Gamma_eff / 2.
    # Quadrature variances read 1 + 2N for N quanta, so the estimate is
    # written in variances V = 2n + 1. README, "Homodyne readout of the
    # cooling transient", has the figures.
    p = replace(FIG3, phi_nl=0.01)
    regime = regime_validity(p)
    assert regime.adiabatic_ok, (
        f"closed-form estimate outside its regime: Gamma_eff/kappa = "
        f"{regime.gamma_eff_over_kappa:.3f}"
    )
    sysm = build_system(p)
    lo = effective_rates(p).gamma_eff_ratio / 2.0
    win = 12.0 / lo
    pairs, weights = matched_filter_pairs(win)
    demod = p.phi * p.q_factor / p.b
    sim = two_time_correlations(
        sysm, None, "x_out", pairs, demod_rate=demod, weights=weights
    )
    dx_m2 = homodyne_variance(sim, lo).dx_m2
    eta = decompose(p).eta
    v_i = 2.0 * p.n_t_i + 1.0
    v_f = 2.0 * steady_variances(sysm).n_t_f + 1.0
    target = 1 + eta * (v_i - v_f) + eta * (1 - eta) * (v_i - 1)
    rel = abs(dx_m2 - target) / target
    ok_b = rel <= 0.25
    assert report(
        7,
        ok_b,
        f"(b) simulated transient dx_m2 = {dx_m2:.1f} vs closed-form estimate "
        f"{target:.1f} at Gamma_eff/kappa = {regime.gamma_eff_over_kappa:.3f}: "
        f"rel deviation {rel:.3f} (<= 0.25)",
    )


def test_criterion_8_physicality(keystone, fig3_run):
    _sysm, _gamma_eff, traj = fig3_run
    worst_defect = min(physicality_defect(s.v) for s in traj)
    worst_product = min(
        min(lyap.dq2 * lyap.dp2, spectral.dq2 * spectral.dp2)
        for _p, lyap, spectral in keystone
    )
    ok = worst_defect >= -1e-9 and worst_product >= 1.0
    assert report(
        8,
        ok,
        f"min eig(V + iJ) = {worst_defect:.2e} (>= -1e-9) over stored samples; "
        f"min dq2*dp2 = {worst_product:.4f} (>= 1) on the steady grid",
    )


def test_criterion_9_determinism(tmp_path):
    identical = True
    sizes = {}
    for mode in ("fig1", "fig2", "fig3"):
        a = tmp_path / f"{mode}_a.csv"
        b = tmp_path / f"{mode}_b.csv"
        assert main([mode, "--out", str(a)]) == 0
        assert main([mode, "--out", str(b)]) == 0
        same = a.read_bytes() == b.read_bytes()
        identical = identical and same
        sizes[mode] = len(a.read_bytes())
    ok = identical
    assert report(
        9,
        ok,
        "byte-identical CSV on repeated preset runs "
        + ", ".join(f"{m} ({n} B)" for m, n in sizes.items()),
    )
