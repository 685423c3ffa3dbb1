"""Covariance dynamics, two-time correlations and homodyne readout."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from optocool import (
    CovarianceState,
    GridMismatch,
    InvalidParams,
    NonPhysical,
    NormalizedParams,
    SolverFailure,
    TwoTimeGrid,
    Unstable,
    WindowTooShort,
    build_system,
    effective_rates,
    evolve_covariance,
    homodyne_variance,
    integrate_variances,
    lyapunov_steady_state,
    matched_filter_pairs,
    output_variance_track,
    physicality_defect,
    steady_variances,
    thermal_covariance,
    two_time_correlations,
)
from optocool import dynamics
from optocool.dynamics import SYMPLECTIC_FORM, LinearSystem, _physical
from optocool.spectra import Method, ThermalNoiseModel

FIG3 = NormalizedParams(b=10, phi=10, phi_nl=0.1, q_factor=1e4, n_t_i=100)
DEEP = NormalizedParams(b=10, phi=10, phi_nl=0.01, q_factor=1e5, n_t_i=100)
#: FIG3 from the mirror's ground state. The flat mirror bath is not
#: completely positive, so early in the transient the state leaves the
#: physical set (smallest defect about -1e-8 near t = 5e-5, against a
#: tolerance of -1e-9).
NONCP = NormalizedParams(b=10, phi=10, phi_nl=0.1, q_factor=1e4, n_t_i=0)


def bare(n_t_i=100.0):
    return NormalizedParams(b=10, phi=5, phi_nl=0.0, q_factor=1e4, n_t_i=n_t_i)


def rk45_oracle(sysm, v0, t_eval):
    """dV/dt = A V + V A^T + D integrated by RK45 on all 16 entries.

    Shares nothing with the exact propagator or the Lyapunov solve, so
    it checks both independently. Times in 1/Gamma units, as returned by
    ``evolve_covariance``.
    """
    a, d, q = sysm.drift, sysm.diffusion, sysm.params.q_factor

    def rhs(_tau, x):
        v = x.reshape(4, 4)
        return (a @ v + v @ a.T + d).ravel()

    scale = max(1.0, float(np.max(np.abs(v0))))
    sol = solve_ivp(
        rhs, (0.0, t_eval[-1] * q), v0.ravel(), method="RK45",
        rtol=1e-11, atol=1e-11 * scale, t_eval=t_eval * q,
    )
    assert sol.success, sol.message
    return sol.y.T.reshape(-1, 4, 4)


def assert_close_to_oracle(traj, want, rel):
    got = np.array([s.v for s in traj])
    dev = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
    assert dev.max() <= rel, f"largest relative deviation {dev.max():.3e}"


@st.composite
def stable_points(draw):
    # n_t_i >= 1: the flat Markovian mirror bath has no position
    # diffusion, so it is not completely positive, and a mirror that
    # starts in its ground state leaves the physical set by up to O(1/Q)
    b = draw(st.floats(0.2, 30.0))
    p = NormalizedParams(
        b=b,
        phi=b * draw(st.floats(0.05, 3.0)),
        phi_nl=draw(st.floats(1e-4, 1.0)),
        q_factor=draw(st.sampled_from([1e2, 1e4, 1e6])),
        n_t_i=draw(st.floats(1.0, 1000.0)),
    )
    try:
        return build_system(p)
    except Unstable:
        assume(False)


class TestBuildSystem:
    def test_decoupled_blocks(self):
        sysm = build_system(bare())
        a = sysm.drift
        assert np.all(a[:2, 2:] == 0) and np.all(a[2:, :2] == 0)
        assert sysm.coupling == 0.0

    def test_coupling_entries_symmetric(self):
        sysm = build_system(FIG3)
        a = sysm.drift
        assert a[1, 2] == a[3, 0] == sysm.coupling
        assert sysm.coupling**2 == pytest.approx(2 * FIG3.phi_nl / FIG3.b, rel=1e-13)

    def test_diffusion(self):
        sysm = build_system(FIG3)
        want = np.diag([0.0, 2 * 201 / 1e4, 0.2, 0.2])
        assert np.allclose(sysm.diffusion, want)

    def test_slowest_eigenvalue_matches_effective_damping(self):
        # valid whenever the adiabatic hierarchy holds
        from optocool import regime_validity

        assert regime_validity(DEEP).adiabatic_ok
        sysm = build_system(DEEP)
        slow = np.max(np.linalg.eigvals(sysm.drift).real)
        want = -effective_rates(DEEP).gamma_eff_ratio / (2 * DEEP.q_factor)
        assert abs(slow - want) / abs(want) < 0.2

    def test_heating_instability_raises(self):
        p = NormalizedParams(b=10, phi=-10, phi_nl=0.1, q_factor=1e4, n_t_i=100)
        with pytest.raises(Unstable):
            build_system(p)

    def test_static_spring_instability_raises(self):
        p = NormalizedParams(b=10, phi=10, phi_nl=6.0, q_factor=1e4, n_t_i=100)
        with pytest.raises(Unstable):
            build_system(p)


class TestEvolve:
    def test_thermal_equilibrium_is_fixed_point(self):
        sysm = build_system(bare(12.0))
        v0 = thermal_covariance(sysm.params)
        traj = evolve_covariance(sysm, v0, t_end=0.5, n_samples=41)
        for state in traj:
            assert np.allclose(state.v, v0.v, rtol=1e-8, atol=1e-8)

    def test_relaxes_to_lyapunov_steady_state(self):
        sysm = build_system(FIG3)
        gamma_eff = effective_rates(FIG3).gamma_eff_ratio
        traj = evolve_covariance(sysm, t_end=20.0 / gamma_eff, n_samples=101)
        v_ss = lyapunov_steady_state(sysm).v
        err = np.linalg.norm(traj[-1].v - v_ss) / np.linalg.norm(v_ss)
        assert err < 1e-6

    def test_physicality_preserved(self):
        sysm = build_system(FIG3)
        traj = evolve_covariance(sysm, t_end=0.005, n_samples=101)
        assert min(physicality_defect(s.v) for s in traj) >= -1e-9

    def test_cooling_shape(self):
        sysm = build_system(FIG3)
        traj = evolve_covariance(sysm, t_end=0.02, n_samples=401)
        dq2 = np.array([s.v[0, 0] for s in traj])
        assert dq2[0] == pytest.approx(201.0)
        assert dq2[-1] == pytest.approx(
            lyapunov_steady_state(sysm).v[0, 0], rel=1e-5
        )


class TestExactPropagation:
    @pytest.mark.parametrize("q_factor", [1e4, 1e6])
    def test_matches_rk45_oracle(self, q_factor):
        p = NormalizedParams(b=10, phi=10, phi_nl=0.1, q_factor=q_factor, n_t_i=100)
        sysm = build_system(p)
        # the fig3 window: twenty lifetimes of the covariance at Q = 1e4
        t_end = 0.02 * 1e4 / q_factor
        traj = evolve_covariance(sysm, t_end=t_end, n_samples=101)
        want = rk45_oracle(sysm, thermal_covariance(p).v, np.linspace(0, t_end, 101))
        assert_close_to_oracle(traj, want, 1e-7)

    def test_expm_branch_on_jordan_block(self):
        # a critically damped mirror: the drift has a defective double
        # eigenvalue, so its eigenvectors are singular and the propagator
        # must come from expm
        p = NormalizedParams(b=10, phi=10, phi_nl=0.0, q_factor=1e2, n_t_i=30)
        drift = np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [-1.0, -2.0, 0.0, 0.0],
                [0.0, 0.0, -0.1, 1.0],
                [0.0, 0.0, -1.0, -0.1],
            ]
        )
        diffusion = np.diag([2.0 * 61, 2.0 * 61, 0.2, 0.2])
        sysm = LinearSystem(drift=drift, diffusion=diffusion, params=p, coupling=0.0)
        assert np.linalg.cond(np.linalg.eig(drift)[1]) >= 1e8
        # quantum noise consistency: D + i(A J + J A^T) >= 0
        j = SYMPLECTIC_FORM
        assert np.linalg.eigvalsh(diffusion + 1j * (drift @ j + j @ drift.T)).min() >= 0

        v0 = thermal_covariance(p)
        t_eval = np.linspace(0.0, 0.5, 51)  # tau = t Q up to 50 / Omega_m
        traj = evolve_covariance(sysm, v0, t_end=0.5, t_eval=t_eval)
        assert_close_to_oracle(traj, rk45_oracle(sysm, v0.v, t_eval), 1e-7)

    @settings(max_examples=60)
    @given(
        sysm=stable_points(),
        t=st.floats(0.0, 3.0),
        s=st.floats(0.0, 3.0),
    )
    def test_exact_propagation_properties(self, sysm, t, s):
        # t and s in lifetimes of the slowest mode
        slowest = float(np.max(np.linalg.eigvals(sysm.drift).real))
        life = 1.0 / (2.0 * abs(slowest) * sysm.params.q_factor)
        t, s = t * life, s * life
        v0 = thermal_covariance(sysm.params)
        t_end = max(t + s, life)

        traj = evolve_covariance(sysm, v0, t_end=t_end, n_samples=21)
        assert np.allclose(traj[0].v, v0.v, rtol=1e-9, atol=1e-9)
        scale = max(1.0, float(np.max(np.abs(v0.v))))
        assert physicality_defect(np.array([x.v for x in traj])).min() >= -1e-9 * scale

        direct = evolve_covariance(sysm, v0, t_end=t_end, t_eval=[t + s])[0].v
        mid = evolve_covariance(sysm, v0, t_end=t_end, t_eval=[t])[0]
        stepped = evolve_covariance(sysm, mid, t_end=t_end, t_eval=[s])[0].v
        dev = np.abs(stepped - direct) / np.maximum(np.abs(direct), 1.0)
        assert dev.max() <= 1e-9


class TestPhysicalityCheck:
    def test_transient_leaving_physical_set_raises(self):
        with pytest.raises(NonPhysical, match=r"at t=\S+ \(1/Gamma\)"):
            evolve_covariance(build_system(NONCP), t_end=0.02, n_samples=401)

    def test_correlations_check_every_pair_time(self):
        ts = np.linspace(0.0, 2e-4, 41)
        pairs = np.column_stack([ts, ts + 1e-3])
        with pytest.raises(NonPhysical, match=r"at t=\S+ \(1/Gamma\)"):
            two_time_correlations(build_system(NONCP), None, "x_out", pairs)

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_cholesky_agrees_with_eigenvalues(self, side):
        # a stack of random symmetric matrices shifted so that one defect
        # sits 0.1% of tol below (side -1) or above (side +1) -tol and the
        # rest well inside: V + cI shifts every eigenvalue of V + iJ by c
        rng = np.random.default_rng(11)
        m = rng.normal(scale=10.0, size=(16, 4, 4))
        v = m + m.transpose(0, 2, 1)
        tol = 1e-9 * float(np.max(np.abs(v)))
        target = rng.uniform(0.0, 5.0, 16)
        target[5] = -tol * (1.0 - side * 1e-3)
        v += (target - physicality_defect(v))[:, None, None] * np.eye(4)
        assert _physical(v, tol) == (side > 0)
        assert _physical(v, tol) == bool(np.all(physicality_defect(v) >= -tol))

    def test_cholesky_rejects_nan(self):
        v = np.stack([np.eye(4), np.full((4, 4), np.nan)])
        assert not _physical(v, 1e-9)


class TestTransientInput:
    # 1.7e308 is finite, but the propagation overflows it
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1.7e308])
    def test_initial_covariance(self, bad):
        sysm = build_system(FIG3)
        v = thermal_covariance(FIG3).v.copy()
        v[0, 1] = v[1, 0] = bad
        v0 = CovarianceState(t=0.0, v=v)
        with pytest.raises(InvalidParams):
            evolve_covariance(sysm, v0, t_end=0.01, n_samples=11)
        with pytest.raises(InvalidParams):
            two_time_correlations(sysm, v0, "x_out", [[0.0, 0.001]])

    @pytest.mark.parametrize("t_eval", [[0.0, math.nan], [-0.001], [0.02]])
    def test_sample_times(self, t_eval):
        with pytest.raises(InvalidParams):
            evolve_covariance(build_system(FIG3), t_end=0.01, t_eval=t_eval)


class TestLyapunov:
    def test_decoupled_thermal(self):
        sysm = build_system(bare(7.0))
        v = lyapunov_steady_state(sysm).v
        assert np.allclose(v, np.diag([15.0, 15.0, 1.0, 1.0]), atol=1e-10)

    def test_vacuum(self):
        sysm = build_system(bare(0.0))
        v = lyapunov_steady_state(sysm).v
        assert np.allclose(v, np.eye(4), atol=1e-12)

    def test_residual(self):
        sysm = build_system(FIG3)
        v = lyapunov_steady_state(sysm).v
        r = sysm.drift @ v + v @ sysm.drift.T + sysm.diffusion
        assert np.linalg.norm(r) < 1e-12 * np.linalg.norm(v)

    def test_residual_check_survives_overflowing_norm(self, monkeypatch):
        # at n_t_i = 1e200 ||V||^2 overflows; an unscaled test then lets
        # through any V, here one 1e-6 off
        sysm = build_system(FIG3.replace(n_t_i=1e200))
        lyapunov_steady_state(sysm)
        solve = dynamics.solve_continuous_lyapunov
        monkeypatch.setattr(
            dynamics, "solve_continuous_lyapunov", lambda a, q: solve(a, q) * (1.0 + 1e-6)
        )
        with pytest.raises(SolverFailure):
            lyapunov_steady_state(sysm)

    def test_huge_diffusion_scales_linearly(self):
        # the solve runs on D scaled by a power of two; unscaled, scipy
        # returns V of order 1e-297 at n_t_i = 1e300
        v200 = lyapunov_steady_state(build_system(FIG3.replace(n_t_i=1e200))).v
        v300 = lyapunov_steady_state(build_system(FIG3.replace(n_t_i=1e300))).v
        # relative to max|V|: V_qp is round-off, about 1e-16 of it
        assert np.max(np.abs(v300 - 1e100 * v200)) <= 1e-12 * np.max(np.abs(v300))

    def test_matches_spectrum_integral(self):
        for p in (
            FIG3,
            NormalizedParams(b=2, phi=1, phi_nl=0.3, q_factor=1e4, n_t_i=100),
            NormalizedParams(b=5, phi=10, phi_nl=0.01, q_factor=1e4, n_t_i=100),
        ):
            lyap = steady_variances(build_system(p))
            spectral = integrate_variances(p, ThermalNoiseModel.MARKOV_FLAT)
            assert abs(lyap.dq2 - spectral.dq2) / spectral.dq2 < 1e-6
            assert abs(lyap.dp2 - spectral.dp2) / spectral.dp2 < 1e-6
            assert lyap.method is Method.LYAPUNOV

    def test_gauge_rotation_leaves_mirror_block(self):
        # rotating the field quadrature basis is the phase convention
        # freedom; the isotropic field diffusion is invariant and so must
        # be every mirror observable
        sysm = build_system(FIG3)
        alpha = 0.7321
        c, s = math.cos(alpha), math.sin(alpha)
        r = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, c, -s], [0, 0, s, c]]
        )
        rotated = LinearSystem(
            drift=r @ sysm.drift @ r.T,
            diffusion=r @ sysm.diffusion @ r.T,
            params=sysm.params,
            coupling=sysm.coupling,
        )
        v_rot = lyapunov_steady_state(rotated).v
        v = lyapunov_steady_state(sysm).v
        assert np.allclose(v_rot[:2, :2], v[:2, :2], rtol=1e-12, atol=1e-12)

    def test_physical(self):
        v = lyapunov_steady_state(build_system(FIG3)).v
        assert physicality_defect(v) >= -1e-12


class TestTwoTimeCorrelations:
    def test_vacuum_output_has_no_smooth_part(self):
        sysm = build_system(bare(50.0))
        ts = np.linspace(0, 0.009, 7)
        pairs = np.array([(a, b) for a in ts for b in ts])
        for quad in ("x_out", "y_out"):
            grid = two_time_correlations(sysm, None, quad, pairs)
            assert np.max(np.abs(grid.values)) < 1e-10

    def test_symmetry_under_time_swap(self):
        sysm = build_system(FIG3)
        ts = np.linspace(0.0, 0.009, 6)
        pairs = np.array([(a, b) for a in ts for b in ts])
        grid = two_time_correlations(sysm, None, "x_out", pairs)
        swapped = two_time_correlations(sysm, None, "x_out", pairs[:, ::-1])
        assert np.allclose(grid.values, swapped.values, rtol=1e-10, atol=1e-12)

    def test_equal_time_matches_variance_track(self):
        sysm = build_system(FIG3)
        traj = evolve_covariance(sysm, t_end=0.01, n_samples=101)
        track = output_variance_track(traj)
        ts = np.array([s.t for s in traj[::10]])
        pairs = np.column_stack([ts, ts])
        grid = two_time_correlations(sysm, None, "x_out", pairs)
        assert np.allclose(grid.values, track[::10, 0], rtol=1e-8, atol=1e-10)

    def test_noise_transfer_transient(self):
        # cooling pushes the mirror's thermal noise through the cavity:
        # the output record rises from zero and decays back
        sysm = build_system(FIG3)
        traj = evolve_covariance(sysm, t_end=0.02, n_samples=401)
        track = output_variance_track(traj)
        dq2 = [s.v[0, 0] for s in traj]
        assert dq2[0] > dq2[-1]
        peak = track[:, 0].argmax()
        assert track[peak, 0] > 0
        assert 0 < peak < len(traj) - 1
        assert track[-1, 0] < 0.2 * track[peak, 0]

    def test_correlations_decay_in_lag(self):
        sysm = build_system(DEEP)
        gamma_eff = effective_rates(DEEP).gamma_eff_ratio
        t0 = 20.0 / gamma_eff
        lags = np.array([0.5, 4.0]) / gamma_eff
        pairs = np.column_stack([np.full(2, t0), t0 + lags])
        demod = DEEP.phi * DEEP.q_factor / DEEP.b
        grid = two_time_correlations(sysm, None, "x_out", pairs, demod_rate=demod)
        assert abs(grid.values[1]) < abs(grid.values[0])

    @pytest.mark.parametrize("quadrature", ["x_out", "y_out"])
    @pytest.mark.parametrize("demod", [0.0, FIG3.phi * FIG3.q_factor / FIG3.b])
    def test_matches_regression_oracle(self, quadrature, demod):
        # C(t, t')/kappa = 2 [(V(t) - 1) e^{A^T (t' - t)}] on the field
        # block, read along the quadrature rotated by demod * t, with V(t)
        # from evolve_covariance and the lag propagator from expm
        sysm = build_system(FIG3)
        pairs = np.array(
            [[0.0, 0.0], [0.001, 0.003], [0.004, 0.0015], [0.01, 0.01], [0.002, 0.012]]
        )
        grid = two_time_correlations(sysm, None, quadrature, pairs, demod_rate=demod)
        theta0 = 0.0 if quadrature == "x_out" else 0.5 * math.pi
        for (t1, t2), got in zip(pairs, grid.values):
            t, tp = min(t1, t2), max(t1, t2)
            v = evolve_covariance(sysm, t_end=0.02, t_eval=[t])[0].v
            lag = expm(sysm.drift.T * (tp - t) * FIG3.q_factor)
            c = 2.0 * ((v - np.eye(4)) @ lag)[2:, 2:]
            u, w = (
                np.array([math.cos(demod * s + theta0), -math.sin(demod * s + theta0)])
                for s in (t, tp)
            )
            want = u @ c @ w
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_grid_errors(self):
        sysm = build_system(FIG3)
        with pytest.raises(GridMismatch):
            two_time_correlations(sysm, None, "z_out", np.array([[0.0, 0.0]]))
        for pair in ((0.0, -0.001), (math.nan, 0.001), (0.001, math.nan), (math.inf, 0.0)):
            with pytest.raises(GridMismatch):
                two_time_correlations(sysm, None, "x_out", np.array([pair]))


class TestHomodyne:
    def test_closed_form_kernel(self):
        # C = c1 G exp(-G (t+t')) + c2 G exp(-G |t-t'|) integrates against
        # the matched filter to exactly 1 + c1/2 + c2
        gam = 998.5
        window = 16.0 / gam
        pairs, weights = matched_filter_pairs(window, 64, 32)
        c1, c2 = 3.7, 1.3
        t, tp = pairs[:, 0], pairs[:, 1]
        kern = c1 * gam * np.exp(-gam * (t + tp)) + c2 * gam * np.exp(
            -gam * np.abs(t - tp)
        )
        scale = FIG3.q_factor / FIG3.b
        grid = TwoTimeGrid(
            times=pairs, values=kern / scale, quadrature="x_out",
            demod_rate=0.0, params=FIG3, weights=weights,
        )
        res = homodyne_variance(grid, gam)
        assert abs(res.dx_m2 - (1 + c1 / 2 + c2)) < 1e-9

    def test_negative_variance_is_grid_mismatch(self):
        # a kernel whose matched-filter integral is below -1 would read as
        # a negative variance; no physical state gives one
        gam = 998.5
        pairs, weights = matched_filter_pairs(16.0 / gam, 64, 32)
        t, tp = pairs[:, 0], pairs[:, 1]
        kern = -3.0 * gam * np.exp(-gam * (t + tp)) - 0.5 * gam * np.exp(
            -gam * np.abs(t - tp)
        )
        grid = TwoTimeGrid(
            times=pairs, values=kern / (FIG3.q_factor / FIG3.b), quadrature="x_out",
            demod_rate=0.0, params=FIG3, weights=weights,
        )
        with pytest.raises(GridMismatch, match="<= 0"):
            homodyne_variance(grid, gam)

    def test_zero_kernel_is_shot_noise(self):
        gam = 100.0
        pairs, weights = matched_filter_pairs(10.0 / gam, 24, 12)
        grid = TwoTimeGrid(
            times=pairs, values=np.zeros(len(pairs)), quadrature="x_out",
            demod_rate=0.0, params=FIG3, weights=weights,
        )
        assert homodyne_variance(grid, gam).dx_m2 == 1.0

    def test_needs_weights(self):
        pairs, _ = matched_filter_pairs(0.01, 8, 4)
        grid = TwoTimeGrid(
            times=pairs, values=np.zeros(len(pairs)), quadrature="x_out",
            demod_rate=0.0, params=FIG3, weights=None,
        )
        with pytest.raises(GridMismatch):
            homodyne_variance(grid, 998.5)

    def test_empty_grid(self):
        sysm = build_system(FIG3)
        grid = two_time_correlations(
            sysm, None, "x_out", np.empty((0, 2)), weights=np.empty(0),
        )
        with pytest.raises(GridMismatch):
            homodyne_variance(grid, 998.5)

    def test_window_too_short(self):
        gam = 998.5
        window = 5.05 / gam
        pairs, weights = matched_filter_pairs(window, 32, 16)
        # flat kernel: the filter mass left outside a barely-legal window
        # exceeds 1% of the integral
        kern = np.full(len(pairs), gam)
        scale = FIG3.q_factor / FIG3.b
        grid = TwoTimeGrid(
            times=pairs, values=kern / scale, quadrature="x_out",
            demod_rate=0.0, params=FIG3, weights=weights,
        )
        with pytest.raises(WindowTooShort):
            homodyne_variance(grid, gam)

    def test_short_precondition(self):
        gam = 998.5
        pairs, weights = matched_filter_pairs(2.0 / gam, 8, 4)
        grid = TwoTimeGrid(
            times=pairs, values=np.zeros(len(pairs)), quadrature="x_out",
            demod_rate=0.0, params=FIG3, weights=weights,
        )
        with pytest.raises(WindowTooShort):
            homodyne_variance(grid, gam)

    def test_cooling_burst_measures_transferred_quanta(self):
        # demodulated at the drive-cavity detuning, the matched filter sees
        # the thermal quanta leaving through the cavity: a large excess
        # over shot noise, of the order of the occupancy drop
        sysm = build_system(FIG3)
        rates = effective_rates(FIG3)
        lo = rates.gamma_eff_ratio
        window = 12.0 / lo
        pairs, weights = matched_filter_pairs(window, 64, 32)
        demod = FIG3.phi * FIG3.q_factor / FIG3.b
        grid = two_time_correlations(
            sysm, None, "x_out", pairs, demod_rate=demod, weights=weights
        )
        res = homodyne_variance(grid, lo)
        assert res.dx_m2 > 30.0
        # without demodulation the sidebands average out of the filter
        lab = two_time_correlations(sysm, None, "x_out", pairs, weights=weights)
        env = 2 * lo * np.exp(-lo * pairs.sum(axis=1))
        lab_excess = 2 * float(
            np.sum(weights * env * lab.values * FIG3.q_factor / FIG3.b)
        )
        assert abs(lab_excess) < 0.05 * (res.dx_m2 - 1)
