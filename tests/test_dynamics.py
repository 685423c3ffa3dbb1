"""Covariance dynamics and the homodyne readout of the output field."""

import dataclasses
import math
import re
import sys
from typing import NamedTuple

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from hypothesis import assume, example, given, settings
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
    Unstable,
    WindowTooShort,
    build_system,
    effective_rates,
    evolve_covariance,
    homodyne_readout,
    integrate_variances,
    lyapunov_steady_state,
    matched_filter_pairs,
    output_variance_track,
    physicality_defect,
    steady_variances,
    thermal_covariance,
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
#: near-exceptional points whose modes count as separated, with eigenvector
#: matrices of cond 2.7e10 and about 1e8
NEAR_EP = NormalizedParams(b=0.49110628778749404, phi=0.4907583304469531,
                           phi_nl=0.9801255981279863, q_factor=13.284851007977878, n_t_i=1)
NEAR_EP_TINY_PHI = NormalizedParams(b=8.58196528053517, phi=9.21397844854376e-09,
                                    phi_nl=0.6768014208711766, q_factor=2.512452397597287,
                                    n_t_i=1)
#: strong coupling: three eigenvalues within 5e-6 of -0.73634 (TRIPLE) and
#: within 6e-8 of -1.8977 (STRONG), one cluster of three nodes each
TRIPLE = NormalizedParams(b=0.38990218009488514, phi=0.27271800624186554,
                          phi_nl=1.6443579384603924, q_factor=269.3339945606255, n_t_i=10)
STRONG = NormalizedParams(b=0.3607944781266366, phi=0.410697318661664,
                          phi_nl=1.3906181808489158, q_factor=5.5695278609331735, n_t_i=1)
#: V_ss entries j <= k from a 60-digit Kronecker solve of A V + V A^T + D =
#: 0 (mpmath, parameters read as the floats below), to 40 digits
PINNED_STEADY_STATES = {
    "jordan": (NormalizedParams(b=10, phi=0, phi_nl=0.1, q_factor=1e2, n_t_i=30), [
        "61.21760633036597429496780738959121854071", "0",
        "0.1398826471190005032694362207026779444776", "0.9557969585801450717652986319581243073142",
        "61.19782393669634026815255217235565321883", "0.01398826471190005032694362207026779444776",
        "-8.561897216984045642380457563660960192625", "1",
        "0.0989119683481701340762760861778266094146", "2.351701021698996574841153405509446364832"]),
    "near_coincident": (NormalizedParams(b=10, phi=1e-9, phi_nl=0.1, q_factor=1e4, n_t_i=30), [
        "80.82158560770730395169354390516775948836", "0",
        "0.1400197573600917430188273188602790128957", "1.146656756529183284620569981349224191735",
        "80.8017838237214207772692431465775812176", "0.01400197562134349864896439628241013790929",
        "-11.31523257422486145319320120558566228478", "1.000000000099008920740224646424085601647",
        "0.09900892074022464025765244942867014886358", "2.621617536371306132698861341726399834719"]),
    "triple": (TRIPLE, [
        "31.90348062662209304041019417723583615257", "0",
        "8.954260446521222651660299364470314444086", "32.8610064959367843543029436185020259239",
        "5.897989024884490178356016962078735778125", "-0.01930670956960911081804060720959230288868",
        "-2.112762214688653125118615408029458888148", "3.574904464890551918312330831063458500826",
        "9.441637170839923351683234041564789037095", "35.63614087613294166784727385873131193817"]),
    "near_separated": (NormalizedParams(b=1, phi=1e-7, phi_nl=1, q_factor=10, n_t_i=0), [
        "11.47618020001055654278289275673565568245", "0",
        "0.6734351711228548268344027674931743863459", "8.821991696810704017708636259656853541649",
        "10.52379904762956915048166371608624133947", "0.6734342889236851457640409178077221244521",
        "-7.407777918938286487757196719674664665996", "1.000000047619119999950415131659492792921",
        "0.4761911999995041728651458598038045955652", "13.47618025715341119131070876207770232872"]),
}


#: V(t) entries j <= k early in a heating transient on resonance (phi = 0) and
#: near it, at t = 1e-4 and 1e-2 (1/Gamma): max|V_ss| is 1e4 and 1e2 times
#: max|V|. From 60-digit mpmath (the Kronecker solve for V_ss, expm of A t Q
#: with t Q the float product), to 40 digits
PINNED_HEATING = {
    "resonance": (NormalizedParams(b=1, phi=0, phi_nl=1, q_factor=1e6, n_t_i=1), [[
        "104.1751741572127927115688745352975617420", "0.6929857274072677796831073468457220284478",
        "0.7071064276333337560704488930954629078241", "74.23358238732797975208243823145258350701",
        "101.8148254831265073901896188009554144798", "0.7071064276333337560704488930954629078241",
        "-71.15041934741712261527177591041361154616", "1.000000000000000000000000000000000000000",
        "0.4999997500001250682955637418037481605816", "104.8020139126120165587622357385437160791"], [
        "9953.780708033582426146504402553568050657", "-0.1956262945624554522715023490031832344542",
        "0.7071064276333337560704488930954629078241", "7039.581308941431109196378034559953515601",
        "9952.551793825939445800648565245434105233", "0.7071064276333337560704488930954629078241",
        "-7037.305155383236667118637265435838779724", "1.000000000000000000000000000000000000000",
        "0.4999997500001250682955637418037481605816", "9955.861877612354211715125065205868749533"]]),
    "near_resonance": (NormalizedParams(b=1, phi=1e-9, phi_nl=1, q_factor=1e6, n_t_i=1), [[
        "104.1751688974152551383186502109082638716", "0.6929856581497100055578070466533981075104",
        "0.7071064292645695064504124605685486329282", "74.23357868175503533057289566442876590701",
        "101.8148203529126206593033025862164506245", "0.7071063559929028476544912970581413072133",
        "-71.15041580502074534053634974506479607332", "1.000000000499999802407586055600779982565",
        "0.4999998025610429600733136223307851916913", "104.8020087884337080233240591524353913251"], [
        "9953.731019223399420929306623657622610595", "-0.1956243411123563381264158229591727614255",
        "0.7071064298859403213267422732108476862920", "7039.546168765723553058860070129248575146",
        "9952.502107300244611290285415248066917184", "0.7070993905016372996783355443138174323988",
        "-7037.270023823793736956220164206700798566", "1.000000000500004727756158917384322639318",
        "0.5000047283489915585970322488212781703210", "9955.812187993096888982421625268326644190"]]),
}


def bare(n_t_i=100.0):
    return NormalizedParams(b=10, phi=5, phi_nl=0.0, q_factor=1e4, n_t_i=n_t_i)


def cluster_sizes(sysm):
    """The sizes of the propagator basis's clusters, in ascending order."""
    return sorted(stop - start for start, stop, _ in sysm.clusters)


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

    One 4x4 propagator (scipy takes a stack one matrix at a time) and one
    sandwich per sample, symmetrized: the formula ``evolve_covariance``
    takes as a sum over pairs of its propagator basis. Times in 1/Gamma
    units.
    """
    v_ss = lyapunov_steady_state(sysm).v
    t_eval = np.asarray(t_eval, dtype=float)[:, None, None]
    e = expm(sysm.drift * t_eval * sysm.params.q_factor)
    v = v_ss + e @ (v0 - v_ss) @ e.transpose(0, 2, 1)
    return 0.5 * (v + v.transpose(0, 2, 1))


def lag_oracle(sysm, v_t, pairs, quadrature, demod_rate):
    """The smooth output correlation at each (t, t') pair, from per-pair matrices.

    2 c(t)^T [(V(t) - 1) e^{A^T (t' - t)}]_ff c(t'), t <= t', with V(t)
    given at each pair's earlier time, the lag propagator from scipy's
    expm and one batched contraction over the field block: the regression
    rule composed with the input-output relation, in kappa units.
    """
    t_early, t_late = pairs.min(axis=1), pairs.max(axis=1)
    lag = expm(sysm.drift.T * (t_late - t_early)[:, None, None] * sysm.params.q_factor)
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
    # phi is 0, tiny (near-coincident cavity poles) or O(1) times b
    b = draw(st.floats(0.2, 30.0))
    ratio = draw(st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(0.05, 3.0)))
    p = NormalizedParams(
        b=b,
        phi=b * ratio,
        phi_nl=draw(st.floats(1e-4, 3.0)),
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

    def test_overflowing_mirror_diffusion_is_an_invalid_system(self):
        # 2 n_t_i + 1 is finite, but 2 (2 n_t_i + 1)/Q is not with Q just above 1
        p = NormalizedParams(b=1, phi=0.6440621913805864, phi_nl=0, q_factor=1.0000000000009095,
                             n_t_i=8.988e307)
        with pytest.raises(InvalidParams, match="mirror diffusion"):
            build_system(p)

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

    def test_jordan_block_is_one_cluster(self):
        # on resonance (phi = 0) the cavity pair -1/b is a defective double
        # eigenvalue of the coupled drift: its eigenvectors are singular,
        # and the two share one cluster of the propagator basis
        p = NormalizedParams(b=10, phi=0, phi_nl=0.1, q_factor=1e2, n_t_i=30)
        sysm = build_system(p)
        assert not sysm.modes.separated and cluster_sizes(sysm) == [1, 1, 2]
        assert np.linalg.cond(np.linalg.eig(sysm.drift)[1]) >= 1e8

        v0 = thermal_covariance(p)
        t_eval = np.linspace(0.0, 0.5, 51)  # tau = t Q up to 50 / Omega_m
        traj = evolve_covariance(sysm, v0, t_end=0.5, t_eval=t_eval)
        assert_close_to_oracle(traj, rk45_oracle(sysm, v0.v, t_eval), 1e-7)

    def test_nearly_coincident_poles_share_a_cluster(self):
        # at phi = 1e-9 the cavity pair is split by about 1e-5 (relative):
        # the modes are not separated, and the pair is one cluster of the
        # basis. V(0) is v0 itself, so the output starts at exactly the vacuum
        p = NormalizedParams(b=10, phi=1e-9, phi_nl=0.1, q_factor=1e4, n_t_i=30)
        sysm = build_system(p)
        assert not sysm.modes.separated and cluster_sizes(sysm) == [1, 1, 2]
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

    @settings(max_examples=40)
    @given(sysm=stable_points(), t=st.floats(0.0, 3.0))
    @example(sysm=build_system(NEAR_EP), t=1.0)
    @example(sysm=build_system(NEAR_EP_TINY_PHI), t=1.0)
    @example(sysm=build_system(TRIPLE), t=1.0)
    @example(sysm=build_system(STRONG), t=1.0)
    def test_basis_propagator_matches_expm(self, sysm, t):
        # t in lifetimes of the slowest mode. expm's own error grows
        # like eps ||A tau|| (scaling and squaring): against 50-digit mpmath
        # the eigenbasis propagator was within 8e-13 where expm was off by
        # 1.4e-10 at ||A tau|| = 6e4. Hence 1e-12 (relative to max|V|) per
        # unit of ||A tau|| beyond 1; over 15000 draws the largest
        # deviation was 3.4e-14 per unit. The examples are near-exceptional
        # points (modes counted as separated, eigenvectors with cond 2.7e10
        # and 1e8, where the eigenbasis was off by up to 4.6e-8) and
        # points with three eigenvalues in one cluster. Both routes add V_ss
        # to a propagated V0 - V_ss, which rounds at the scale of V_ss: early
        # in a heating transient (phi = 0 or tiny, Q = 1e6), where max|V_ss|
        # is 1e4 times max|V|, scipy's expm alone is 1.1e-12 per unit off.
        # Draws where it is over 10 times are left to
        # test_heating_transient_meets_its_40_digit_value
        a, q = sysm.drift, sysm.params.q_factor
        slowest = float(np.max(np.linalg.eigvals(a).real))
        life = 1.0 / (2.0 * abs(slowest) * q)
        t = t * life
        v0 = thermal_covariance(sysm.params).v

        got = evolve_covariance(sysm, t_end=max(t, life), t_eval=[t])[0].v
        want = sandwich_oracle(sysm, v0, [t])[0]
        assume(np.max(np.abs(lyapunov_steady_state(sysm).v)) <= 10.0 * np.max(np.abs(want)))
        bound = 1e-12 * max(1.0, np.linalg.norm(a * t * q, 2))
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


    @pytest.mark.parametrize("p, want", PINNED_HEATING.values(), ids=PINNED_HEATING)
    def test_heating_transient_meets_its_40_digit_value(self, p, want):
        # the draws that the property above leaves out, at its bound:
        # 1e-12 per unit of ||A tau|| beyond 1, relative to max|V| (scipy's
        # expm is 1.1e-12 per unit off at t = 1e-4, the basis 3.2e-14)
        sysm = build_system(p)
        t, (j, k) = np.array([1e-4, 1e-2]), np.triu_indices(4)
        got = evolve_covariance(sysm, t_end=t[-1], t_eval=t).v[:, j, k]
        want = np.array([[float(x) for x in row] for row in want])
        units = np.maximum(1.0, np.linalg.norm(sysm.drift * (t * p.q_factor)[:, None, None], 2,
                                               axis=(1, 2)))
        assert np.all(np.max(np.abs(got - want), axis=1)
                      <= 1e-12 * units * np.max(np.abs(want), axis=1))


class TestModalPropagation:
    @settings(max_examples=60, deadline=None)
    @given(sysm=stable_points(), times=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=8))
    @example(sysm=build_system(NEAR_EP), times=[0.0, 0.5, 1.0, 3.0])
    @example(sysm=build_system(NEAR_EP_TINY_PHI), times=[0.0, 0.5, 1.0, 3.0])
    @example(sysm=build_system(TRIPLE), times=[0.0, 0.5, 1.0, 3.0])
    @example(sysm=build_system(STRONG), times=[0.0, 0.5, 1.0, 3.0])
    def test_matches_the_per_sample_oracles(self, sysm, times):
        # a whole stack of samples, against one expm and one sandwich per
        # sample (TestHomodyneReadout checks the correlations). expm's own error
        # grows like eps ||A tau|| (see the property above), hence 1e-12
        # per unit of ||A tau|| beyond 1, relative to max|V| (heating
        # transients aside, as in the property above)
        a, q = sysm.drift, sysm.params.q_factor
        slowest = float(np.max(np.linalg.eigvals(a).real))
        life = 1.0 / (2.0 * abs(slowest) * q)
        t = np.array(times) * life
        v0 = thermal_covariance(sysm.params).v

        traj = evolve_covariance(sysm, t_end=max(t.max(), life), t_eval=t)
        assert np.array_equal(traj.v, traj.v.transpose(0, 2, 1))
        want = sandwich_oracle(sysm, v0, t)
        assume(np.max(np.abs(lyapunov_steady_state(sysm).v)) <= 10.0 * np.max(np.abs(want)))
        units = max(1.0, np.linalg.norm(a * t.max() * q, 2))
        assert np.max(np.abs(traj.v - want)) <= 1e-12 * units * np.max(np.abs(want))

    @settings(max_examples=60, deadline=None)
    @given(sysm=stable_points(), taus=st.lists(st.floats(0.0, 1e7), min_size=1, max_size=8))
    @example(sysm=build_system(FIG3), taus=[0.0, 1.0, 3e5, 1e7])
    def test_conjugate_pairs_give_the_exponential_of_every_mode(self, sysm, taus):
        # where every cluster is one node and the eigenvalues come in exact
        # conjugate pairs, two rows are exponentials and two their
        # conjugates; each equals e^{lambda tau} (0 past the underflow), a
        # signed zero aside
        assume(cluster_sizes(sysm) == [1, 1, 1, 1])
        lam = sysm.modes.eigenvalues
        z = np.multiply.outer(lam, taus)
        want = np.exp(z, out=np.zeros_like(z), where=z.real > -800.0)
        c, _ = dynamics._propagators(sysm, np.array(taus))
        assert np.array_equal(c, want)
        if sysm.params == FIG3:
            assert lam[1] == lam[0].conjugate() and lam[3] == lam[2].conjugate()

    @pytest.mark.parametrize("p", [
        NormalizedParams(b=1, phi=0, phi_nl=0.3, q_factor=1e4, n_t_i=10),
        NormalizedParams(b=10, phi=0, phi_nl=0.1, q_factor=1e2, n_t_i=30),  # Jordan block
        NormalizedParams(b=10, phi=1e-9, phi_nl=0.1, q_factor=1e4, n_t_i=30),  # near-coincident
    ], ids=["phi0", "jordan", "near_coincident"])
    def test_clustered_points_match_the_oracles(self, p):
        # the modes are not separated: the cavity pair is one cluster of
        # two nodes, whose second basis matrix is (A - z_0) P_C
        # (TestHomodyneReadout checks the readout there)
        sysm = build_system(p)
        assert cluster_sizes(sysm) == [1, 1, 2]
        t_end = 100.0 / p.q_factor  # tau = t Q up to 100
        t = np.linspace(0.0, t_end, 9)
        units = max(1.0, np.linalg.norm(sysm.drift * t_end * p.q_factor, 2))
        traj = evolve_covariance(sysm, t_end=t_end, t_eval=t)
        assert np.array_equal(traj.v, traj.v.transpose(0, 2, 1))
        want = sandwich_oracle(sysm, thermal_covariance(p).v, t)
        assert np.max(np.abs(traj.v - want)) <= 1e-12 * units * np.max(np.abs(want))


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

    def test_track_that_overflows_is_typed(self):
        # V_yy reaches 9.96e307, so 2 (V_yy - 1) is not a float
        p = NormalizedParams(b=1e6, phi=0.12616082231132736, phi_nl=4.0,
                             q_factor=1096.6331584284585, n_t_i=8.988e307)
        traj = evolve_covariance(build_system(p), n_samples=5)
        assert np.all(np.isfinite(traj.v))
        with pytest.raises(InvalidParams, match="output correlation .* overflows"):
            output_variance_track(traj)

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

    def test_readout_is_finite(self):
        # at an oscillator of half the slowest decay rate the readout is
        # finite, and, as the transient, the direct reading 2^900 times
        # smaller scaled back (its shot noise and vacuum parts are 1e-270
        # of the whole)
        sysm = build_system(self.P)
        lo = -0.5 * max(z.real for z in sysm.modes.eigenvalues) * self.P.q_factor
        got = homodyne_readout(sysm, None, "x_out", lo).dx_m2
        small = self.P.replace(n_t_i=self.P.n_t_i * 2.0 ** -900)
        want = homodyne_readout(build_system(small), None, "x_out", lo).dx_m2 * 2.0 ** 900
        assert math.isfinite(got) and abs(got - want) <= 1e-12 * want


class TestPhysicalityCheck:
    def test_transient_leaving_physical_set_raises(self):
        with pytest.raises(NonPhysical, match=r"at t=\S+ \(1/Gamma\)"):
            evolve_covariance(build_system(NONCP), t_end=0.02, n_samples=401)

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
        with pytest.raises(InvalidParams, match="v0 must be finite"):
            homodyne_readout(sysm, v0, "x_out", 998.5)

    def test_unphysical_initial_covariance_near_the_float_range(self):
        # a q-p covariance of 1.7e308 is finite and propagates in range,
        # but V0 + iJ has an eigenvalue near -1.7e308: no state starts there
        sysm = build_system(FIG3)
        v = thermal_covariance(FIG3).v.copy()
        v[0, 1] = v[1, 0] = 1.7e308
        v0 = CovarianceState(t=0.0, v=v)
        with pytest.raises(NonPhysical, match="at t=0 "):
            evolve_covariance(sysm, v0, t_end=0.01, n_samples=11)
        # the readout's earliest time is after t = 0 (its grid has no node
        # there), and the state has not yet come near the physical set
        with pytest.raises(NonPhysical, match="defect -1.700e\\+308 at t="):
            homodyne_readout(sysm, v0, "x_out", 998.5)

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
            homodyne_readout(sysm, v0, "x_out", 998.5)

    @pytest.mark.parametrize("t_end, t_eval", [
        (0.01, [0.0, math.nan]), (0.01, [-0.001]), (0.01, [0.02]),
        (None, [0.0, math.nan]), (None, [-0.001]), (None, [math.inf]),
    ])
    def test_sample_times(self, t_end, t_eval):
        with pytest.raises(InvalidParams, match="t_eval must be finite"):
            evolve_covariance(build_system(FIG3), t_end=t_end, t_eval=t_eval)

    @pytest.mark.parametrize("n_samples", [True, False, 2.5, 2.0, "3", None, 1, 0, -5])
    def test_sample_count(self, n_samples):
        # as the CLI's dynamics.samples >= 2: once 2.5 raised a raw
        # TypeError, 0 gave an empty Trajectory and True one sample
        for t_end in (0.01, None):
            with pytest.raises(InvalidParams, match="n_samples must be an integer >= 2"):
                evolve_covariance(build_system(FIG3), t_end=t_end, n_samples=n_samples)

    def test_numpy_integer_sample_count(self):
        traj = evolve_covariance(build_system(FIG3), t_end=0.01, n_samples=np.int64(2))
        assert list(traj.t) == [0.0, 0.01]


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
        # through any V, here one 1e-6 off: the one solve, perturbed (and
        # blind to the residuals it is asked to refine), fails
        sysm = build_system(FIG3.replace(n_t_i=1e200))
        exact = lyapunov_steady_state(sysm).v
        steady, calls = dynamics._steady, []
        monkeypatch.setattr(dynamics, "_steady", lambda s, r: calls.append(r) or (
            steady(s, r) * (1.0 + 1e-6) if len(calls) == 1 else np.zeros((4, 4))))
        with pytest.raises(SolverFailure):
            lyapunov_steady_state(sysm)
        assert len(calls) == 3 and np.max(np.abs(exact)) > 1e155  # its square overflows

    @pytest.mark.parametrize("p, want", PINNED_STEADY_STATES.values(), ids=PINNED_STEADY_STATES)
    def test_steady_state_meets_its_40_digit_value(self, p, want):
        # where the eigenbasis is ill-conditioned or the eigenvalues nearly
        # coincide: once a modal solve (1/(lambda_i + lambda_j) in an
        # eigenbasis of cond 1e8) missed its residual test at b=1, phi=1e-7,
        # and Bartels-Stewart was 3.2e-13 off at the near-coincident point
        v = lyapunov_steady_state(build_system(p)).v
        want = np.array([float(x) for x in want])
        assert np.max(np.abs(v[np.triu_indices(4)] - want)) <= 5e-14 * np.max(np.abs(want))

    def test_huge_diffusion_scales_linearly(self):
        # the solve runs on D scaled by a power of two; unscaled, scipy
        # returns V of order 1e-297 at n_t_i = 1e300
        v200 = lyapunov_steady_state(build_system(FIG3.replace(n_t_i=1e200))).v
        v300 = lyapunov_steady_state(build_system(FIG3.replace(n_t_i=1e300))).v
        # relative to max|V|: V_qp is round-off, about 1e-16 of it
        assert np.max(np.abs(v300 - 1e100 * v200)) <= 1e-12 * np.max(np.abs(v300))

    def test_diffusion_in_the_top_binade(self):
        # max|D| = 1.32e308, whose power of two above, 2^1024, is not a
        # float: the solve runs on D / 2^1023. The mirror is decoupled
        p = NormalizedParams(b=1e-100, phi=0, phi_nl=0, q_factor=math.e, n_t_i=8.988e307)
        v = lyapunov_steady_state(build_system(p)).v
        want = [2.0 * p.n_t_i + 1.0] * 2 + [1.0] * 2
        assert np.diag(v) == pytest.approx(want, rel=1e-12)

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


def filter_sum(window, kernel, lo_rate):
    """``dynamics._filter_sum`` of ``kernel(t, t')`` on ``matched_filter_pairs(window)``.

    The kernel is in 1/Gamma rate units; the sum reads values in kappa
    units, so the kernel is divided by kappa/Gamma at FIG3.
    """
    pairs, weights = matched_filter_pairs(window)
    values = kernel(pairs[:, 0], pairs[:, 1]) / (FIG3.q_factor / FIG3.b)
    return dynamics._filter_sum(pairs, weights, values, FIG3, lo_rate, 0.0)


#: the smallest filter rate (Gamma units) at which the readout's quadrature
#: weights, of order (12/lo_rate)^2, are finite; 2.472e-155 overflows them
LO_WEIGHTS_FINITE = 2.473e-155


class TestHomodyne:
    """The filter sum and its triangle grid, on analytic kernels."""

    def test_closed_form_kernel(self):
        # C = c1 G exp(-G (t+t')) + c2 G exp(-G |t-t'|) integrates against
        # the matched filter to exactly 1 + c1/2 + c2
        gam, c1, c2 = 998.5, 3.7, 1.3
        res = filter_sum(16.0 / gam, lambda t, tp: c1 * gam * np.exp(-gam * (t + tp))
                         + c2 * gam * np.exp(-gam * np.abs(t - tp)), gam)
        assert abs(res.dx_m2 - (1 + c1 / 2 + c2)) < 1e-9

    def test_negative_variance_is_grid_mismatch(self):
        # a kernel whose matched-filter integral is below -1 would read as
        # a negative variance; no physical state gives one
        gam = 998.5
        with pytest.raises(GridMismatch, match="<= 0"):
            filter_sum(16.0 / gam, lambda t, tp: -3.0 * gam * np.exp(-gam * (t + tp))
                       - 0.5 * gam * np.exp(-gam * np.abs(t - tp)), gam)

    def test_zero_kernel_is_shot_noise(self):
        gam = 100.0
        assert filter_sum(10.0 / gam, lambda t, tp: np.zeros_like(t), gam).dx_m2 == 1.0

    def test_window_too_short(self):
        # flat kernel: the filter mass left outside a window of 5.05
        # lifetimes exceeds 1% of the integral
        gam = 998.5
        with pytest.raises(WindowTooShort):
            filter_sum(5.05 / gam, lambda t, tp: np.full_like(t, gam), gam)

    def test_grid_is_the_order_by_half_the_order(self):
        # 64 x 32, whatever the window: the triangle's area, window^2 / 2,
        # is integrated exactly, and no argument changes the order
        times, weights = matched_filter_pairs(0.01)
        assert times.shape == (64 * 32, 2) and weights.shape == (64 * 32,)
        assert weights.sum() == pytest.approx(0.5e-4, rel=1e-13)
        with pytest.raises(TypeError):
            matched_filter_pairs(0.01, 128)

    def test_pairs_are_repeatable_and_leave_the_rule_intact(self):
        # the two Gauss-Legendre rules are built once and kept read-only;
        # what a call returns is the caller's to change
        first = [a.copy() for a in matched_filter_pairs(0.01)]
        times, weights = matched_filter_pairs(0.01)
        times[:] = -1.0
        weights *= 2.0
        for got, want in zip(matched_filter_pairs(0.01), first):
            assert np.array_equal(got, want)
        for rule, n in ((dynamics._OUTER_RULE, 64), (dynamics._INNER_RULE, 32)):
            for kept, fresh in zip(rule, leggauss(n)):
                assert np.array_equal(kept, fresh) and not kept.flags.writeable

    @settings(max_examples=200)
    @given(lo=st.floats(math.log(LO_WEIGHTS_FINITE), math.log(sys.float_info.max)).map(math.exp))
    @example(lo=LO_WEIGHTS_FINITE)
    @example(lo=sys.float_info.max)
    def test_readout_grid_has_no_zero_lag_and_a_fixed_last_node(self, lo):
        # the readout's triangle over the window 12/lo: every early time t'
        # is > 0, and so is every lag, which the readout takes as the early
        # times mirrored (t - t' in exact arithmetic); a zero-lag branch is
        # dead. The last node is 11.9958302504/lo, past any window of 5/lo
        pairs, weights = matched_filter_pairs(12.0 / lo)
        t, early = pairs[:, 0], pairs[:, 1]
        assert np.all(early > 0.0) and np.all(t - early > 0.0)
        assert np.all(np.isfinite(weights))
        assert f"{t.max() * lo:.12g}" == "11.9958302504"

    @settings(max_examples=50)
    @given(lo=st.floats(math.log(1e-307), math.log(2.472e-155)).map(math.exp))
    @example(lo=2.472e-155)
    @example(lo=1e-307)
    def test_weights_overflow_below_the_range(self, lo):
        with pytest.raises(InvalidParams, match="quadrature weights overflow"):
            matched_filter_pairs(12.0 / lo)

    def test_readout_raises_the_weight_overflow(self):
        with pytest.raises(InvalidParams, match="quadrature weights overflow"):
            homodyne_readout(build_system(FIG3), None, "x_out", 2.472e-155)

    def test_cooling_burst_measures_transferred_quanta(self):
        # demodulated at the drive-cavity detuning, the matched filter sees
        # the thermal quanta leaving through the cavity: a large excess
        # over shot noise, of the order of the occupancy drop
        sysm = build_system(FIG3)
        lo = effective_rates(FIG3).gamma_eff_ratio
        res = homodyne_readout(sysm, None, "x_out", lo)
        assert res.dx_m2 > 30.0
        # without demodulation the sidebands average out of the filter: so
        # far that the readout's tail bound exceeds 1% of the excess and it
        # raises, so the oracle's filter sum shows it
        assert outcome(homodyne_readout, sysm, None, "x_out", lo, 0.0)[0] is WindowTooShort
        lab = grid_readout(sysm, None, "x_out", lo, 0.0)
        assert abs(lab.dx_m2 - 1.0) < 0.05 * (res.dx_m2 - 1)


#: the symplectic form in the (dq, dp, dx, dy) basis: V is physical where V + iJ >= 0
J = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])


class Reading(NamedTuple):
    """The numbers :func:`grid_readout` computes; :func:`verdict` reads them."""

    dx_m2: float   # 1 + the filter sum
    tail: float    # bound on the filter sum's part past the last node
    last: float    # the last outer node, in units of 1/lo_rate
    defect: float  # smallest eigenvalue of V + iJ at the early times, per max(1, max|V0|)


def grid_readout(sysm, v0, quadrature, lo_rate, demod_rate=None, order=64):
    """The matched-filter readout from per-pair matrices, sharing no code with ``dynamics``.

    V(t') at each early time from ``sandwich_oracle``, the correlation at
    each pair from ``lag_oracle`` (one expm per lag), and a plain filter
    sum 1 + 2 sum w E(t) E(t') (kappa/Gamma) C(t', t) on its own
    Gauss-Legendre triangle t' <= t: ``order`` outer nodes and order // 2
    inner ones over the window 12/lo_rate. ``v0`` None is the thermal
    state and ``demod_rate`` None the cavity detuning phi Q / b, as in
    the readout.
    """
    p = sysm.params
    demod_rate = p.phi * p.q_factor / p.b if demod_rate is None else demod_rate
    if v0 is None:
        v0 = np.diag([2.0 * p.n_t_i + 1.0] * 2 + [1.0] * 2)
    window = 12.0 / lo_rate
    (xo, wo), (xi, wi) = leggauss(order), leggauss(order // 2)
    t = np.repeat(0.5 * window * (xo + 1.0), order // 2)
    early = 0.5 * t * np.tile(xi + 1.0, order)
    weights = np.repeat(0.5 * window * wo, order // 2) * 0.5 * t * np.tile(wi, order)
    v_t = sandwich_oracle(sysm, v0, early)
    values = lag_oracle(sysm, v_t, np.column_stack([early, t]), quadrature, demod_rate)
    kappa_over_gamma = p.q_factor / p.b
    env = 2.0 * lo_rate * np.exp(-lo_rate * (t + early))
    x = math.exp(-lo_rate * t.max())
    return Reading(
        dx_m2=1.0 + 2.0 * float(np.sum(weights * env * kappa_over_gamma * values)),
        tail=float(np.max(np.abs(values))) * kappa_over_gamma * 2.0 / lo_rate * (2.0 * x - x * x),
        last=float(t.max()) * lo_rate,
        defect=float(np.linalg.eigvalsh(v_t + 1j * J)[:, 0].min()) / max(1.0, np.max(np.abs(v0))),
    )


def verdict(reading):
    """The error type the readout owes for an oracle reading, or None for a value.

    In the readout's order: a state off the physical set (beyond -1e-9),
    a sum that is not finite, a tail bound past 1% of the sum, a measured
    variance <= 0.
    """
    integral = reading.dx_m2 - 1.0
    if reading.defect < -1e-9:
        return NonPhysical
    if not math.isfinite(integral):
        return InvalidParams
    if reading.tail > 0.01 * abs(integral):
        return WindowTooShort
    if reading.dx_m2 <= 0.0:
        return GridMismatch
    return None


def outcome(route, *args, **kwargs):
    """A route's HomodyneResult, or the type and message of its error."""
    try:
        return route(*args, **kwargs)
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)


def rounding(sysm, lo_rate):
    """eps ||A tau|| over the window 12/lo_rate: the error expm carries there."""
    tau = 12.0 / lo_rate * sysm.params.q_factor
    return np.finfo(float).eps * np.linalg.norm(sysm.drift * tau, 2)


class TestHomodyneReadout:
    """``homodyne_readout`` against the per-pair oracle ``grid_readout``."""

    @staticmethod
    def assert_matches(got, want, rel=1e-12):
        """The readout's outcome ``got`` is the one the oracle's reading ``want`` owes.

        Where the reading owes a value: within ``rel`` of it (relative to
        the shot noise where the reading is squeezed below it), at the
        same last node. Elsewhere an error of the type :func:`verdict` names.
        """
        error = verdict(want)
        if error is not None:
            assert isinstance(got, tuple) and got[0] is error, (got, want)
            return
        assert isinstance(got, HomodyneResult), (got, want)
        assert abs(got.dx_m2 - want.dx_m2) <= rel * max(1.0, abs(want.dx_m2)), (got, want)
        assert got.window == pytest.approx(want.last, rel=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(
        sysm=stable_points(),
        quadrature=st.sampled_from(["x_out", "y_out"]),
        demodulate=st.booleans(),
        lo_lifetimes=st.floats(0.2, 5.0),
    )
    def test_matches_the_grid_route(self, sysm, quadrature, demodulate, lo_lifetimes):
        # each expm of the oracle carries an error of up to eps ||A tau||
        # over the window, the readout's modal phases one of round-off. Past
        # 1e-12 the two agree to four times that bound
        assume(sysm.modes.separated)
        p = sysm.params
        slowest = -max(z.real for z in sysm.modes.eigenvalues) * p.q_factor  # Gamma units
        assume(slowest > 0.0)
        lo = lo_lifetimes * slowest
        demod = p.phi * p.q_factor / p.b if demodulate else 0.0
        want = grid_readout(sysm, None, quadrature, lo, demod)
        got = outcome(homodyne_readout, sysm, None, quadrature, lo, demod)
        self.assert_matches(got, want, rel=max(1e-12, 4.0 * rounding(sysm, lo)))

    @pytest.mark.parametrize("p, lo, demod", [
        (NormalizedParams(b=10, phi=1e-9, phi_nl=0.1, q_factor=1e4, n_t_i=30), 1.0, 3.0),
        (NormalizedParams(b=10, phi=0, phi_nl=0.1, q_factor=1e2, n_t_i=30), 1.0, 0.0),
        (NormalizedParams(b=10, phi=0, phi_nl=0.1, q_factor=1e2, n_t_i=30), 1.0, 3.0),
    ], ids=["near_coincident", "jordan", "jordan_demodulated"])
    @pytest.mark.parametrize("quadrature", ["x_out", "y_out"])
    def test_clustered_points_match_the_grid_route(self, p, lo, demod, quadrature):
        # the demodulated y_out readout at the near-coincident point is
        # negative on the grid: a GridMismatch, as the oracle owes
        sysm = build_system(p)
        assert cluster_sizes(sysm) == [1, 1, 2]
        self.assert_matches(outcome(homodyne_readout, sysm, None, quadrature, lo, demod),
                            grid_readout(sysm, None, quadrature, lo, demod),
                            rel=max(1e-12, 4.0 * rounding(sysm, lo)))

    def test_oracle_reads_the_converged_value_at_fig3(self):
        # the readout's 64 x 32 grid prints 65.7254025206 at the fig3 point;
        # the oracle's triangle at order 128 gives the converged value
        # (orders 128 and 256 agree to the printed digits)
        lo = effective_rates(FIG3).gamma_eff_ratio
        reading = grid_readout(build_system(FIG3), None, "x_out", lo, order=128)
        assert f"{reading.dx_m2:.12g}" == "65.7257709862"

    @pytest.mark.parametrize("quadrature", ["x_out", "y_out"])
    @pytest.mark.parametrize("demod", [None, 0.0], ids=["demodulated", "lab_frame"])
    def test_vacuum_output_reads_shot_noise(self, quadrature, demod):
        # a decoupled mirror (phi_nl = 0) leaves the reflected field in vacuum
        res = homodyne_readout(build_system(bare(50.0)), None, quadrature, 998.5, demod)
        assert abs(res.dx_m2 - 1.0) < 1e-10

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
        # a 30-digit evaluation of the same 64 x 32 grid sum gives
        # 121.578264241417; expm's propagators printed 121.578264242
        p = NormalizedParams(b=10, phi=1e-9, phi_nl=0.1, q_factor=1e4, n_t_i=30)
        res = homodyne_readout(build_system(p), None, "x_out", 1.0, 3.0)
        assert f"{res.dx_m2:.12g}" == "121.578264241"

    @pytest.mark.parametrize("p, demod, error, message", [
        # the lab frame: the grid cannot follow the rotation at Omega_m
        (FIG3.replace(phi_nl=0.01), 0.0, GridMismatch, "measured variance -0.624 "),
        (NONCP, None, NonPhysical, "physicality defect -1.004e-09 at t=5.42217e-06 "),
    ], ids=["lab_frame", "non_physical"])
    def test_errors_are_the_grid_routes(self, p, demod, error, message):
        sysm = build_system(p)
        lo = effective_rates(p).gamma_eff_ratio
        got = outcome(homodyne_readout, sysm, None, "x_out", lo, demod)
        self.assert_matches(got, grid_readout(sysm, None, "x_out", lo, demod),
                            rel=max(1e-12, 4.0 * rounding(sysm, lo)))
        assert got[0] is error and message in got[1]

    def test_huge_occupancy_is_the_scaled_grid_route(self):
        # the oracle's own sums overflow at n_t_i = 5e307 where the
        # readout's do not: it reads the point with n_t_i 2^900 times
        # smaller, whose excess scales back (shot noise and vacuum parts are
        # 1e-270 of the whole)
        p = FIG3.replace(n_t_i=5e307)
        lo = effective_rates(p).gamma_eff_ratio
        got = homodyne_readout(build_system(p), None, "x_out", lo)
        small = build_system(p.replace(n_t_i=p.n_t_i * 2.0 ** -900))
        want = grid_readout(small, None, "x_out", lo).dx_m2 * 2.0 ** 900
        assert math.isfinite(got.dx_m2)
        assert abs(got.dx_m2 - want) <= max(1e-12, 4.0 * rounding(small, lo)) * want

    @pytest.mark.parametrize("quadrature, lo, error, message", [
        ("z_out", 998.5, GridMismatch, "unknown quadrature"),
        ("x_out", 0.0, InvalidParams, "lo_rate must be finite"),
        ("x_out", math.nan, InvalidParams, "lo_rate must be finite"),
        ("x_out", 1e-308, InvalidParams, "window must be finite"),
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

