"""Covariance dynamics, two-time correlations and homodyne readout."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm, solve_continuous_lyapunov

from optocool import (
    CovarianceState,
    Trajectory,
    GridMismatch,
    HomodyneResult,
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
    homodyne_readout,
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
from optocool import cli, dynamics
from optocool.dynamics import _physical
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


def sandwich_oracle(sysm, v0, t_eval):
    """V_ss + e (V0 - V_ss) e^T at each time, e = scipy's expm of A t Q.

    One 4x4 propagator and one sandwich per sample, symmetrized: the
    formula ``evolve_covariance`` takes as a sum over pairs of its
    propagator basis. Times in 1/Gamma units.
    """
    v_ss = lyapunov_steady_state(sysm).v
    out = []
    for t in t_eval:
        e = expm(sysm.drift * t * sysm.params.q_factor)
        v = v_ss + e @ (v0 - v_ss) @ e.T
        out.append(0.5 * (v + v.T))
    return np.array(out)


def lag_oracle(sysm, v_t, pairs, quadrature, demod_rate):
    """The grid values from V(t) at each pair's earlier time, per pair matrices.

    2 c(t)^T [(V(t) - 1) e^{A^T (t' - t)}]_ff c(t'), with the lag
    propagator from scipy's expm and one batched contraction over the
    field block: what ``two_time_correlations`` takes from the field rows
    and the lag phases.
    """
    t_early, t_late = pairs.min(axis=1), pairs.max(axis=1)
    lag = np.array([expm(sysm.drift.T * (b - a) * sysm.params.q_factor)
                    for a, b in zip(t_early, t_late)]).reshape(-1, 4, 4)
    block = ((v_t - np.eye(4)) @ lag)[:, 2:, 2:]
    theta0 = 0.0 if quadrature == "x_out" else 0.5 * math.pi
    ce, cl = (np.column_stack([np.cos(theta), -np.sin(theta)])
              for theta in (demod_rate * t_early + theta0, demod_rate * t_late + theta0))
    return 2.0 * np.einsum("ni,nij,nj->n", ce, block, cl)


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
        assert a[1, 2] == 0.0

    def test_coupling_entries_symmetric(self):
        sysm = build_system(FIG3)
        a = sysm.drift
        assert a[1, 2] == a[3, 0]
        assert a[1, 2] ** 2 == pytest.approx(2 * FIG3.phi_nl / FIG3.b, rel=1e-13)

    def test_diffusion(self):
        sysm = build_system(FIG3)
        want = np.diag([0.0, 2 * 201 / 1e4, 0.2, 0.2])
        assert np.allclose(sysm.diffusion, want)

    @pytest.mark.parametrize("n_t_i", [0.0, 100.0, 1e300, 4e307, 8.9e307])
    def test_diffusion_up_to_the_float_range(self, n_t_i):
        # 2 ((2 n + 1)/Q): the same float as 2 (2 n + 1)/Q wherever that
        # is finite, and finite wherever 2 n + 1 is
        d = build_system(FIG3.replace(n_t_i=n_t_i)).diffusion[1, 1]
        with np.errstate(over="ignore"):
            old = 2.0 * (2.0 * n_t_i + 1.0) / FIG3.q_factor
        assert math.isfinite(d)
        assert d == old or math.isinf(old)

    @pytest.mark.parametrize("n_t_i", [8.99e307, 1e308, 1.7976931348623157e308])
    def test_overflowing_diffusion_is_an_invalid_point(self, n_t_i):
        # 2 n_t_i + 1 is inf: the point itself is rejected, before any
        # system or integral is built from it
        with pytest.raises(InvalidParams, match="2 n_t_i \\+ 1"):
            FIG3.replace(n_t_i=n_t_i)

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


    def test_default_window_at_huge_occupancy(self):
        # max|V0| / 1e-12 overflows at n_t_i = 1e300; the window is a
        # difference of logs and stays finite
        sysm = build_system(FIG3.replace(n_t_i=1e300))
        traj = evolve_covariance(sysm)
        v_ss = lyapunov_steady_state(sysm).v
        assert 0.0 < traj.t[-1] < 1.0
        assert np.max(np.abs(traj[-1].v - v_ss)) <= 1e-10 * np.max(np.abs(v_ss))

    def test_default_window_needs_a_decaying_mode(self):
        sysm = build_system(FIG3)
        # a drift whose slowest mode rounds to no decay (classify has passed)
        object.__setattr__(sysm, "modes", sysm.modes._replace(eigenvalues=[-1.0, 0.0j, -1.0, -1.0]))
        with pytest.raises(SolverFailure, match="does not decay"):
            evolve_covariance(sysm)

    def test_sample_times_need_no_window(self):
        # with t_eval alone no window is computed: any finite time >= 0
        sysm = build_system(FIG3)
        traj = evolve_covariance(sysm, t_eval=[0.0, 1e3])
        assert traj[-1].v == pytest.approx(lyapunov_steady_state(sysm).v, rel=1e-12)


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
        # on resonance (phi = 0) the cavity pair -1/b is a defective double
        # eigenvalue of the coupled drift: its eigenvectors are singular,
        # the modes are not separated and the propagator comes from expm
        p = NormalizedParams(b=10, phi=0, phi_nl=0.1, q_factor=1e2, n_t_i=30)
        sysm = build_system(p)
        assert not sysm.modes.separated and sysm.inverse is None
        assert np.linalg.cond(sysm.modes.vectors) >= 1e8

        v0 = thermal_covariance(p)
        t_eval = np.linspace(0.0, 0.5, 51)  # tau = t Q up to 50 / Omega_m
        traj = evolve_covariance(sysm, v0, t_end=0.5, t_eval=t_eval)
        assert_close_to_oracle(traj, rk45_oracle(sysm, v0.v, t_eval), 1e-7)

    def test_expm_branch_where_poles_nearly_coincide(self):
        # at phi = 1e-9 the cavity pair is split by about 1e-5 (relative):
        # the eigenvectors are usable (cond 1.4e4) but the modes are not
        # separated, so, as in the spectral route, the propagator leaves
        # the eigenbasis. expm(0) is the identity, so the output starts at
        # exactly the vacuum, where S S^-1 would leave round-off (3.6e-13)
        p = NormalizedParams(b=10, phi=1e-9, phi_nl=0.1, q_factor=1e4, n_t_i=30)
        sysm = build_system(p)
        assert not sysm.modes.separated and sysm.inverse is None
        v0 = thermal_covariance(p)
        t_eval = np.linspace(0.0, 0.005, 101)  # tau up to 50 / Omega_m
        traj = evolve_covariance(sysm, v0, t_end=0.005, t_eval=t_eval)
        assert_close_to_oracle(traj, rk45_oracle(sysm, v0.v, t_eval), 1e-7)
        assert output_variance_track(traj)[0, 1] == 0.0

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

    @pytest.mark.parametrize("p", [FIG3, DEEP, bare()], ids=["fig3", "deep", "bare"])
    def test_eigenbasis_starts_at_v0_exactly(self, p):
        # e^{A 0} is the identity, not S S^-1 with its round-off, and V(0)
        # is v0 itself, not V_ss + (v0 - V_ss)
        sysm = build_system(p)
        assert sysm.modes.separated
        v0 = thermal_covariance(p)
        traj = evolve_covariance(sysm, v0, t_end=0.01, n_samples=5)
        assert np.array_equal(traj[0].v, v0.v)
        assert np.all(output_variance_track(traj)[0] == 0.0)
        t = traj[2].t
        grid = two_time_correlations(sysm, v0, "x_out", [[0.0, 0.0], [t, t]])
        assert grid.values[0] == 0.0
        assert grid.values[1] == output_variance_track(traj)[2, 0]

    @settings(max_examples=40)
    @given(
        sysm=stable_points(),
        t=st.floats(0.0, 3.0),
        s=st.floats(0.0, 3.0),
    )
    def test_eigenbasis_propagator_matches_expm(self, sysm, t, s):
        # t and s in lifetimes of the slowest mode. expm's own error grows
        # like eps ||A tau|| (scaling and squaring): against 50-digit mpmath
        # the eigenbasis propagator was within 8e-13 where expm was off by
        # 1.4e-10 at ||A tau|| = 6e4. Hence 1e-12 (relative to max|V|) per
        # unit of ||A tau|| beyond 1; over 15000 draws the largest
        # deviation was 3.4e-14 per unit
        assume(sysm.modes.separated)
        a, q = sysm.drift, sysm.params.q_factor
        slowest = float(np.max(np.linalg.eigvals(a).real))
        life = 1.0 / (2.0 * abs(slowest) * q)
        t, s = t * life, s * life
        v0 = thermal_covariance(sysm.params).v

        got = evolve_covariance(sysm, t_end=max(t, life), t_eval=[t])[0].v
        want = sandwich_oracle(sysm, v0, [t])[0]
        bound = 1e-12 * max(1.0, np.linalg.norm(a * t * q, 2))
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))

        # the lag propagator of the two-time correlations, against the
        # regression oracle of TestTwoTimeCorrelations
        demod = sysm.params.phi * q / sysm.params.b
        pairs = np.array([[t, t + s]])
        grid = two_time_correlations(sysm, None, "y_out", pairs, demod_rate=demod)
        want = lag_oracle(sysm, got[None], pairs, "y_out", demod)[0]
        bound = 1e-12 * max(1.0, np.linalg.norm(a * s * q, 2))
        assert abs(grid.values[0] - want) <= bound * max(1.0, np.max(np.abs(got)))


class TestModalPropagation:
    @settings(max_examples=60, deadline=None)
    @given(
        sysm=stable_points(),
        times=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=8),
        lags=st.lists(st.floats(0.0, 3.0), min_size=8, max_size=8),
        quadrature=st.sampled_from(["x_out", "y_out"]),
        demodulate=st.booleans(),
    )
    def test_matches_the_per_sample_oracles(self, sysm, times, lags, quadrature, demodulate):
        # a whole stack of samples and of pairs, against one expm and one
        # sandwich (or one lag contraction) per sample. expm's own error
        # grows like eps ||A tau|| (see the property above), hence 1e-12
        # per unit of ||A tau|| beyond 1, relative to max|V|
        assume(sysm.modes.separated)
        a, q = sysm.drift, sysm.params.q_factor
        slowest = float(np.max(np.linalg.eigvals(a).real))
        life = 1.0 / (2.0 * abs(slowest) * q)
        t = np.array(times) * life
        v0 = thermal_covariance(sysm.params).v

        traj = evolve_covariance(sysm, t_end=max(t.max(), life), t_eval=t)
        assert np.array_equal(traj.v, traj.v.transpose(0, 2, 1))
        want = sandwich_oracle(sysm, v0, t)
        units = max(1.0, np.linalg.norm(a * t.max() * q, 2))
        assert np.max(np.abs(traj.v - want)) <= 1e-12 * units * np.max(np.abs(want))

        pairs = np.column_stack([t, t + np.array(lags[:len(t)]) * life])
        demod = sysm.params.phi * q / sysm.params.b if demodulate else 0.0
        grid = two_time_correlations(sysm, None, quadrature, pairs, demod_rate=demod)
        want = lag_oracle(sysm, traj.v, pairs, quadrature, demod)
        units = max(1.0, np.linalg.norm(a * np.ptp(pairs, axis=1).max() * q, 2))
        scale = max(1.0, np.max(np.abs(traj.v)))
        assert np.max(np.abs(grid.values - want)) <= 1e-12 * units * scale

    @pytest.mark.parametrize("p", [
        NormalizedParams(b=1, phi=0, phi_nl=0.3, q_factor=1e4, n_t_i=10),
        NormalizedParams(b=10, phi=0, phi_nl=0.1, q_factor=1e2, n_t_i=30),  # Jordan block
        NormalizedParams(b=10, phi=1e-9, phi_nl=0.1, q_factor=1e4, n_t_i=30),  # near-coincident
    ], ids=["phi0", "jordan", "near_coincident"])
    def test_expm_branch_matches_the_oracles(self, p):
        # the modes are not separated, the propagators come from expm and
        # the transient and the grid read their 16 coefficients the same
        # way as the modal phases
        sysm = build_system(p)
        assert sysm.inverse is None
        t_end = 100.0 / p.q_factor  # tau = t Q up to 100
        t = np.linspace(0.0, t_end, 9)
        units = max(1.0, np.linalg.norm(sysm.drift * t_end * p.q_factor, 2))
        traj = evolve_covariance(sysm, t_end=t_end, t_eval=t)
        assert np.array_equal(traj.v, traj.v.transpose(0, 2, 1))
        want = sandwich_oracle(sysm, thermal_covariance(p).v, t)
        assert np.max(np.abs(traj.v - want)) <= 1e-12 * units * np.max(np.abs(want))
        pairs = np.column_stack([t, t[::-1]])
        for quadrature in ("x_out", "y_out"):
            grid = two_time_correlations(sysm, None, quadrature, pairs, demod_rate=3.0)
            v_t = evolve_covariance(sysm, t_end=t_end, t_eval=pairs.min(axis=1)).v
            want = lag_oracle(sysm, v_t, pairs, quadrature, 3.0)
            assert np.max(np.abs(grid.values - want)) <= 1e-12 * units * np.max(np.abs(v_t))


class TestTrajectory:
    def test_sequence_of_states_and_arrays(self):
        sysm = build_system(FIG3)
        traj = evolve_covariance(sysm, t_end=0.01, n_samples=11)
        assert isinstance(traj, Trajectory) and len(traj) == 11
        assert traj.t.shape == (11,) and traj.v.shape == (11, 4, 4)
        states = list(traj)
        assert all(isinstance(x, CovarianceState) for x in states)
        assert np.array_equal(np.array([x.t for x in states]), traj.t)
        assert np.array_equal(np.array([x.v for x in states]), traj.v)
        assert traj[-1].t == 0.01 and np.array_equal(traj[-1].v, traj.v[10])
        part = traj[::5]
        assert isinstance(part, Trajectory) and np.array_equal(part.t, traj.t[::5])

    def test_read_only(self):
        t_eval = np.linspace(0.0, 0.01, 5)
        traj = evolve_covariance(build_system(FIG3), t_end=0.01, t_eval=t_eval)
        for a in (traj.t, traj.v, traj[2].v):
            with pytest.raises(ValueError):
                a[...] = 0.0
        t_eval[0] = 0.001  # the caller's times are copied, not frozen
        assert traj.t[0] == 0.0

    def test_track_reads_the_field_diagonal_of_each_state(self):
        traj = evolve_covariance(build_system(FIG3), t_end=0.01, n_samples=21)
        want = [[2.0 * (x.v[2, 2] - 1.0), 2.0 * (x.v[3, 3] - 1.0)] for x in traj]
        assert np.array_equal(output_variance_track(traj), np.array(want))


class TestHugeOccupancy:
    #: V0 is 5.08e307 on the mirror diagonal and V_ss reaches 1.0959e308:
    #: both are finite, though V0 - V_ss and V + V^T are not far from the
    #: float range
    P = NormalizedParams(b=18.018148102696706, phi=-9.00908471927914,
                         phi_nl=0.01341490652415349, q_factor=3684.7184194676943,
                         n_t_i=2.539974757085866e307)

    def test_transient_propagates_in_range(self):
        sysm = build_system(self.P)
        v0, v_ss = thermal_covariance(self.P).v, lyapunov_steady_state(sysm).v
        t = np.array([0.0, 1.0, 5.0, 20.0, 1e305])
        traj = evolve_covariance(sysm, t_end=1e305, t_eval=t)
        assert np.all(np.isfinite(traj.v))
        assert np.array_equal(traj[0].v, v0)
        assert np.array_equal(traj[-1].v, v_ss)  # every phase has underflowed
        assert np.max(np.abs(traj.v)) <= 1.25 * 2.0 ** 1023
        # the direct propagation from the same state, at a scale where
        # nothing overflows, agrees to round-off
        small = self.P.replace(n_t_i=self.P.n_t_i * 2.0 ** -900)
        want = evolve_covariance(build_system(small), t_end=1e305, t_eval=t).v * 2.0 ** 900
        assert np.max(np.abs(traj.v - want)) <= 1e-12 * np.max(np.abs(want))

    def test_grid_is_finite(self):
        sysm = build_system(self.P)
        pairs = np.array([[0.0, 0.0], [0.5, 2.0], [3.0, 3.0]])
        grid = two_time_correlations(sysm, None, "x_out", pairs)
        assert np.all(np.isfinite(grid.values))


class TestPhysicalityCheck:
    def test_transient_leaving_physical_set_raises(self):
        with pytest.raises(NonPhysical, match=r"at t=\S+ \(1/Gamma\)"):
            evolve_covariance(build_system(NONCP), t_end=0.02, n_samples=401)

    def test_correlations_check_every_pair_time(self):
        ts = np.linspace(0.0, 2e-4, 41)
        pairs = np.column_stack([ts, ts + 1e-3])
        with pytest.raises(NonPhysical, match=r"at t=\S+ \(1/Gamma\)"):
            two_time_correlations(build_system(NONCP), None, "x_out", pairs)

    def test_pivots_decide_alone(self, monkeypatch):
        # the pivots' verdict on each sample is final: the first sample
        # they fail raises, with its defect (here a physical one, > 0),
        # and no eigenvalue test overrules it
        traj = evolve_covariance(build_system(FIG3), t_end=0.01, n_samples=11)
        monkeypatch.setattr(dynamics, "_physical", lambda u, tol, s: np.arange(len(u)) < 7)
        defect = physicality_defect(traj.v[7])
        message = f"defect {defect:.3e} at t={traj.t[7]:.6g} (1/Gamma)"
        with pytest.raises(NonPhysical, match=re.escape(message)):
            evolve_covariance(build_system(FIG3), t_end=0.01, n_samples=11)

    @staticmethod
    def entries(v):
        """The (n, 10) table of a symmetric stack's entries j <= k, as ``_transient`` keeps V."""
        j, k = np.triu_indices(4)
        return v[:, j, k]

    @pytest.mark.parametrize("seed", [11, 12, 13])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_pivots_agree_with_eigenvalues(self, side, seed):
        # a stack of random symmetric matrices shifted so that one defect
        # sits 0.1% of tol below (side -1) or above (side +1) -tol and the
        # rest well inside: V + cI shifts every eigenvalue of V + iJ by c
        rng = np.random.default_rng(seed)
        m = rng.normal(scale=10.0, size=(16, 4, 4))
        v = m + m.transpose(0, 2, 1)
        tol = 1e-9 * float(np.max(np.abs(v)))
        target = rng.uniform(0.0, 5.0, 16)
        target[5] = -tol * (1.0 - side * 1e-3)
        v += (target - physicality_defect(v))[:, None, None] * np.eye(4)
        want = np.arange(16) != 5 if side < 0 else np.full(16, True)
        table = self.entries(v)
        assert _physical(table, tol).tolist() == want.tolist()
        assert _physical(table, tol).tolist() == (physicality_defect(v) >= -tol).tolist()
        # the same test on V / s at the scale s, a power of two, as the
        # propagation takes it: every pivot scales exactly
        for s in (2.0 ** -40, 2.0 ** 40):
            assert _physical(table / s, tol, s).tolist() == want.tolist()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (3, 3), (2, 0), (3, 1)])
    def test_pivots_reject_a_non_finite_row(self, bad, entry):
        # eigvalsh fails or gives nan there; either way the row is not physical
        v = np.stack([np.eye(4) * 3.0] * 3)
        v[1][entry] = v[1][entry[::-1]] = bad
        with np.errstate(invalid="ignore"):
            try:
                verdict = bool(np.all(physicality_defect(v) >= -1e-9))
            except np.linalg.LinAlgError:
                verdict = False
        assert not verdict
        assert _physical(self.entries(v), 1e-9).tolist() == [True, False, True]


class TestTransientInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_initial_covariance(self, bad):
        sysm = build_system(FIG3)
        v = thermal_covariance(FIG3).v.copy()
        v[0, 1] = v[1, 0] = bad
        v0 = CovarianceState(t=0.0, v=v)
        with pytest.raises(InvalidParams):
            evolve_covariance(sysm, v0, t_end=0.01, n_samples=11)
        with pytest.raises(InvalidParams, match="v0 must be finite"):
            evolve_covariance(sysm, v0)  # the default window
        with pytest.raises(InvalidParams):
            two_time_correlations(sysm, v0, "x_out", [[0.0, 0.001]])

    def test_unphysical_initial_covariance_near_the_float_range(self):
        # a q-p covariance of 1.7e308 is finite and propagates in range,
        # but V0 + iJ has an eigenvalue near -1.7e308: no state starts there
        sysm = build_system(FIG3)
        v = thermal_covariance(FIG3).v.copy()
        v[0, 1] = v[1, 0] = 1.7e308
        v0 = CovarianceState(t=0.0, v=v)
        with pytest.raises(NonPhysical, match="at t=0 "):
            evolve_covariance(sysm, v0, t_end=0.01, n_samples=11)
        with pytest.raises(NonPhysical, match="at t=0 "):
            two_time_correlations(sysm, v0, "x_out", [[0.0, 0.001]])

    def test_propagation_overflow(self):
        # V_qq = V_pp = -V_qp = 1.7e308 is physical within tolerance; a
        # quarter of a mechanical period later V_qq (1 + sin 2 theta) reaches
        # 3.4e308, with no warning
        sysm = build_system(FIG3)
        v = thermal_covariance(FIG3).v.copy()
        v[:2, :2] = [[1.7e308, -1.7e308], [-1.7e308, 1.7e308]]
        v0 = CovarianceState(t=0.0, v=v)
        with pytest.raises(InvalidParams, match="overflows in propagation"):
            evolve_covariance(sysm, v0, t_end=0.01, n_samples=11)
        with pytest.raises(InvalidParams, match="overflows in propagation"):
            two_time_correlations(sysm, v0, "x_out", [[0.0, 0.001], [0.001, 0.002]])

    @pytest.mark.parametrize("t_end, t_eval", [
        (0.01, [0.0, math.nan]), (0.01, [-0.001]), (0.01, [0.02]),
        (None, [0.0, math.nan]), (None, [-0.001]), (None, [math.inf]),
    ])
    def test_sample_times(self, t_end, t_eval):
        with pytest.raises(InvalidParams, match="t_eval must be finite"):
            evolve_covariance(build_system(FIG3), t_end=t_end, t_eval=t_eval)


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

    def test_steady_state_near_the_float_range(self):
        # max|V| is 1.0959e308: V + V^T and A V overflow, V itself does not
        p = NormalizedParams(b=18.018148102696706, phi=-9.00908471927914,
                             phi_nl=0.01341490652415349, q_factor=3684.7184194676943,
                             n_t_i=2.539974757085866e307)
        lyap = steady_variances(build_system(p))
        spectral = integrate_variances(p, ThermalNoiseModel.MARKOV_FLAT)
        assert abs(lyap.dq2 - spectral.dq2) <= 1e-10 * spectral.dq2
        assert abs(lyap.dp2 - spectral.dp2) <= 1e-10 * spectral.dp2
        assert math.isfinite(lyap.n_t_f)

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
        v_rot = solve_continuous_lyapunov(r @ sysm.drift @ r.T, -(r @ sysm.diffusion @ r.T))
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
        pairs, weights = matched_filter_pairs(window)
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
        pairs, weights = matched_filter_pairs(16.0 / gam)
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
        pairs, weights = matched_filter_pairs(10.0 / gam, 24)
        grid = TwoTimeGrid(
            times=pairs, values=np.zeros(len(pairs)), quadrature="x_out",
            demod_rate=0.0, params=FIG3, weights=weights,
        )
        assert homodyne_variance(grid, gam).dx_m2 == 1.0

    @pytest.mark.parametrize("order", [64.0, "64", 1, 0, -3, True, None],
                             ids=["float", "text", "one", "zero", "negative", "bool", "none"])
    def test_grid_order_is_an_integer_of_at_least_two(self, order):
        with pytest.raises(InvalidParams, match="grid order must be an integer >= 2"):
            matched_filter_pairs(0.01, order)

    @pytest.mark.parametrize("order", [2, 7, np.int64(64)], ids=["two", "odd", "numpy"])
    def test_grid_is_the_order_by_half_the_order(self, order):
        # the triangle's area, window^2 / 2, is integrated exactly
        times, weights = matched_filter_pairs(0.01, order)
        n = int(order)
        assert times.shape == (n * (n // 2), 2) and weights.shape == (n * (n // 2),)
        assert weights.sum() == pytest.approx(0.5e-4, rel=1e-13)
        for got, want in zip(matched_filter_pairs(0.01, n), (times, weights)):
            assert np.array_equal(got, want)

    def test_pairs_are_repeatable_and_leave_the_rule_intact(self):
        # each Gauss-Legendre rule is built once per order and kept; what
        # a call returns is the caller's to change
        first = [a.copy() for a in matched_filter_pairs(0.01, 8)]
        times, weights = matched_filter_pairs(0.01, 8)
        times[:] = -1.0
        weights *= 2.0
        for got, want in zip(matched_filter_pairs(0.01, 8), first):
            assert np.array_equal(got, want)
        for n in (4, 8):
            for cached, fresh in zip(dynamics._gauss_legendre(n), np.polynomial.legendre.leggauss(n)):
                assert np.array_equal(cached, fresh) and not cached.flags.writeable

    def test_needs_weights(self):
        pairs, _ = matched_filter_pairs(0.01, 8)
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
        pairs, weights = matched_filter_pairs(window, 32)
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
        pairs, weights = matched_filter_pairs(2.0 / gam, 8)
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
        pairs, weights = matched_filter_pairs(window)
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


def grid_readout(sysm, v0, quadrature, lo_rate, demod_rate=0.0, n_outer=64):
    """The readout the general route takes: pairs, correlations, filter sum."""
    pairs, weights = matched_filter_pairs(12.0 / lo_rate, n_outer)
    grid = two_time_correlations(sysm, v0, quadrature, pairs,
                                 demod_rate=demod_rate, weights=weights)
    return homodyne_variance(grid, lo_rate)


def outcome(route, *args, **kwargs):
    """A route's HomodyneResult, or the type and message of its error."""
    try:
        return route(*args, **kwargs)
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)


class TestHomodyneReadout:
    """``homodyne_readout`` against the general two-time route it shortcuts."""

    @staticmethod
    def assert_same(got, want, rel=1e-12):
        # relative to the shot noise where the reading is squeezed below it
        if isinstance(want, tuple):  # an error: the same type and message
            assert got == want
        else:
            assert abs(got.dx_m2 - want.dx_m2) <= rel * max(1.0, abs(want.dx_m2))
            assert (got.lo_rate, got.window, got.demod_rate) == \
                (want.lo_rate, want.window, want.demod_rate)

    @settings(max_examples=40, deadline=None)
    @given(
        sysm=stable_points(),
        quadrature=st.sampled_from(["x_out", "y_out"]),
        demodulate=st.booleans(),
        lo_lifetimes=st.floats(0.2, 5.0),
    )
    def test_matches_the_grid_route(self, sysm, quadrature, demodulate, lo_lifetimes):
        # the grid route's lag t - t' carries an absolute rounding of up to
        # eps t, so its lag propagators an error of eps ||A tau|| over the
        # window; the mirrored lags round once. Past 1e-12 the two agree to
        # that bound (at Q = 1e2 every example is within 1e-13)
        assume(sysm.modes.separated)
        p = sysm.params
        slowest = -max(z.real for z in sysm.modes.eigenvalues) * p.q_factor  # Gamma units
        assume(slowest > 0.0)
        lo = lo_lifetimes * slowest
        demod = p.phi * p.q_factor / p.b if demodulate else 0.0
        want = outcome(grid_readout, sysm, None, quadrature, lo, demod)
        got = outcome(homodyne_readout, sysm, None, quadrature, lo, demod)
        tau = 12.0 / lo * p.q_factor
        rounding = np.finfo(float).eps * np.linalg.norm(sysm.drift * tau, 2)
        self.assert_same(got, want, rel=max(1e-12, 4.0 * rounding))

    @pytest.mark.parametrize("p, lo, demod", [
        (NormalizedParams(b=10, phi=1e-9, phi_nl=0.1, q_factor=1e4, n_t_i=30), 1.0, 3.0),
        (NormalizedParams(b=10, phi=0, phi_nl=0.1, q_factor=1e2, n_t_i=30), 1.0, 0.0),
        (NormalizedParams(b=10, phi=0, phi_nl=0.1, q_factor=1e2, n_t_i=30), 1.0, 3.0),
    ], ids=["near_coincident", "jordan", "jordan_demodulated"])
    @pytest.mark.parametrize("quadrature", ["x_out", "y_out"])
    def test_expm_branch_matches_the_grid_route(self, p, lo, demod, quadrature):
        # the demodulated y_out readout at the near-coincident point is
        # negative on the grid, a GridMismatch on both routes
        sysm = build_system(p)
        assert sysm.inverse is None
        self.assert_same(outcome(homodyne_readout, sysm, None, quadrature, lo, demod),
                         outcome(grid_readout, sysm, None, quadrature, lo, demod))

    @settings(max_examples=40, deadline=None)
    @given(
        sysm=stable_points(),
        quadrature=st.sampled_from(["x_out", "y_out"]),
        lo_lifetimes=st.floats(0.2, 5.0),
    )
    def test_cli_row_is_the_library_default(self, sysm, quadrature, lo_lifetimes):
        # the homodyne mode leaves the demodulation to homodyne_readout
        p = sysm.params
        slowest = -max(z.real for z in sysm.modes.eigenvalues) * p.q_factor  # Gamma units
        assume(slowest > 0.0)
        lo = lo_lifetimes * slowest
        fields = {f.name: repr(getattr(p, f.name)) for f in dataclasses.fields(p)}
        cfg = cli.parse_config("", "homodyne", {
            **fields, "homodyne.lo_rate": repr(lo), "homodyne.quadrature": quadrature})
        got = outcome(lambda: cli.run(cfg).rows[0])
        want = outcome(homodyne_readout, sysm, None, quadrature, lo)
        if isinstance(want, HomodyneResult):
            want = (want.dx_m2, want.lo_rate, want.window, quadrature, want.demod_rate, True)
        assert got == want

    @pytest.mark.parametrize("phi_nl, printed", [(0.1, "65.7254025206"), (0.01, "154.885114501")])
    def test_default_demodulation_is_the_cavity_detuning(self, phi_nl, printed):
        # in the lab frame (the old default, 0) the readout at the fig3
        # point raised WindowTooShort, and at phi_nl = 0.01 GridMismatch
        p = FIG3.replace(phi_nl=phi_nl)
        res = homodyne_readout(build_system(p), None, "x_out", effective_rates(p).gamma_eff_ratio)
        assert f"{res.dx_m2:.12g}" == printed
        assert res.demod_rate == 1e4 and f"{res.window:.12g}" == "11.9958302504"

    def test_near_coincident_point_prints_its_value(self):
        p = NormalizedParams(b=10, phi=1e-9, phi_nl=0.1, q_factor=1e4, n_t_i=30)
        res = homodyne_readout(build_system(p), None, "x_out", 1.0, 3.0)
        assert f"{res.dx_m2:.12g}" == "121.578264242"

    @pytest.mark.parametrize("p, lo, demod, error, message", [
        # the lab frame: the grid cannot follow the rotation at Omega_m
        (FIG3.replace(phi_nl=0.01), None, 0.0, GridMismatch, "measured variance -0.624 "),
        (FIG3, 1e-308, None, InvalidParams, "window must be finite"),
        (NONCP, None, None, NonPhysical, "physicality defect -1.004e-09 at t=5.42217e-06 "),
        (FIG3.replace(n_t_i=5e307), None, None, None, None),
    ], ids=["lab_frame", "window_overflow", "non_physical", "huge_occupancy"])
    def test_errors_are_the_grid_routes(self, p, lo, demod, error, message):
        sysm = build_system(p)
        lo = effective_rates(p).gamma_eff_ratio if lo is None else lo
        demod = p.phi * p.q_factor / p.b if demod is None else demod
        got = outcome(homodyne_readout, sysm, None, "x_out", lo, demod)
        self.assert_same(got, outcome(grid_readout, sysm, None, "x_out", lo, demod))
        if error is None:
            assert math.isfinite(got.dx_m2)
        else:
            assert got[0] is error and message in got[1]

    @pytest.mark.parametrize("quadrature, lo, error, message", [
        ("z_out", 998.5, GridMismatch, "unknown quadrature"),
        ("x_out", 0.0, InvalidParams, "lo_rate must be finite"),
        ("x_out", math.nan, InvalidParams, "lo_rate must be finite"),
    ])
    def test_invalid_arguments(self, quadrature, lo, error, message):
        with pytest.raises(error, match=message):
            homodyne_readout(build_system(FIG3), None, quadrature, lo)

    def test_takes_no_grid_order(self):
        with pytest.raises(TypeError):
            homodyne_readout(build_system(FIG3), None, "x_out", 998.5, n_outer=64)

    def test_one_propagator_table(self, monkeypatch):
        # the lags are the early times mirrored within each outer row, so
        # one table serves both; the rule's nodes are exactly antisymmetric
        for n in range(1, 129):
            x, _ = np.polynomial.legendre.leggauss(n)
            assert np.array_equal(x, -x[::-1])
        calls = []
        propagators = dynamics._propagators
        monkeypatch.setattr(dynamics, "_propagators",
                            lambda sysm, taus: calls.append(len(taus)) or propagators(sysm, taus))
        homodyne_readout(build_system(FIG3), None, "y_out", 998.5, 1e4)
        assert calls == [64 * 32]

