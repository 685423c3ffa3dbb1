"""Time-domain moment dynamics of the linearized mirror-field system.

State vector (dq, dp, dx, dy): mirror position/momentum quadratures and
cavity amplitude/phase quadratures, vacuum variance 1. The field phase
is chosen so the mean intracavity amplitude is real and positive, which
puts the radiation-pressure force entirely into the amplitude
quadrature dx and the mirror backaction into dy; observables are
invariant under this gauge choice. The drift A, in units of the
mechanical frequency (kappa -> 1/b, Gamma -> 1/Q), is
:func:`~optocool.model.drift_matrix`, with the coupling g = sqrt(2
phi_nl / b) *derived* from Delta_nl = G^2 |a_ss|^2 / Omega_m and pinned
by the cross-method test against the spectrum integrals. It is driven
by white noise with diffusion diag(0, 2(2 n_t_i + 1)/Q, 2/b, 2/b): a
flat Markovian mirror bath, matching the flat thermal weight of the
spectral route, plus vacuum input noise on the field.

The drift is constant, so the transient is propagated exactly rather
than integrated: V(t) = V_ss + e^{A tau} (V0 - V_ss) e^{A^T tau}, with
V_ss the Lyapunov steady state. Where the modes of
:func:`~optocool.model.drift_modes` are separated, A = S diag(lambda)
S^-1 and everything runs in that eigenbasis. V_ss = S W S^T takes one
division per entry, W_ij = -(S^-1 D S^-T)_ij / (lambda_i + lambda_j),
and every propagator is a sum of modal exponentials, e^{A tau} = sum_m
c_m(tau) B_m with c_m = e^{lambda_m tau} and B_m the rank-one
projectors P_m = S[:, m] S^-1[m, :] (C. F. Van Loan, IEEE TAC 23(3),
1978), with no 4x4 matrix formed per sample. Where the modes are not
separated (the spectral route's quadrature test), or the modal steady
state misses its residual test, V_ss is the Bartels-Stewart solve; where
they are not separated, c holds ``expm`` of A tau, one per sample, and B
the 16 unit matrices. Both bases are read by one formula: V(t) - V_ss
is a table of the products c_m c_n, m <= n, times one fixed coefficient
matrix.

The output field is read by one route, :func:`homodyne_readout`: the
matched filter over the two-time correlations of the reflected field on
a fixed Gauss-Legendre triangle. Each correlation contracts its
demodulation vectors with V(t)'s two field rows and with the lag
coefficients times the basis's field rows. On that triangle the lags
are the early times mirrored, so the readout reads both from one
table. Exposed timestamps are in units of 1/Gamma; the propagator's
argument is in units of 1/Omega_m (tau = t * Q).

The module imports numpy alone, and a transient at separated modes
runs on numpy alone. scipy.linalg (the Bartels-Stewart solve and
``expm``) is imported by the functions that call it, on first use.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    GridMismatch,
    InvalidParams,
    NonPhysical,
    SolverFailure,
    WindowTooShort,
)
from .model import DriftModes, NormalizedParams, classify, drift_matrix, drift_modes
from .spectra import Method, ThermalNoiseModel, VarianceResult

__all__ = [
    "SYMPLECTIC_FORM",
    "LinearSystem",
    "CovarianceState",
    "Trajectory",
    "HomodyneResult",
    "build_system",
    "thermal_covariance",
    "physicality_defect",
    "lyapunov_steady_state",
    "steady_variances",
    "evolve_covariance",
    "output_variance_track",
    "matched_filter_pairs",
    "homodyne_readout",
]

# unused; perfbench/tracer.py wraps this name in this module
solve_ivp = None

#: symplectic form J for [z_j, z_k] = 2i J_jk in the (dq, dp, dx, dy) basis
SYMPLECTIC_FORM = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)
SYMPLECTIC_FORM.setflags(write=False)

#: phase of the measured quadrature at t = 0 (``y_out`` lags ``x_out`` by pi/2)
_QUAD_PHASE = {"x_out": 0.0, "y_out": 0.5 * math.pi}

#: the matched filter's window, in lifetimes 1/lo_rate of the local oscillator
_FILTER_LIFETIMES = 12.0
#: its grid's Gauss-Legendre rules, built once: 64 outer nodes, 32 inner ones
_OUTER_RULE, _INNER_RULE = leggauss(64), leggauss(32)
for _a in (*_OUTER_RULE, *_INNER_RULE):
    _a.setflags(write=False)

#: the basis of the ``expm`` propagators: the 16 unit 4x4 matrices
_UNIT_BASIS = np.eye(16).reshape(16, 4, 4)
_UNIT_BASIS.setflags(write=False)
#: the 10 index pairs j <= k of a symmetric 4x4 matrix, and where each
#: entry (j, k) of the matrix sits among them
_PAIRS = np.triu_indices(4)
_PAIR_OF = np.empty((4, 4), dtype=int)
_PAIR_OF[_PAIRS] = _PAIR_OF[_PAIRS[::-1]] = np.arange(10)
#: the basis pairs m <= n of the modal (4) and the ``expm`` (16) bases
_BASIS_PAIRS = {4: _PAIRS, 16: np.triu_indices(16)}


@dataclass(frozen=True)
class LinearSystem:
    """Drift/diffusion pair of the linearized dynamics, rates in Omega_m units.

    Derived once from ``params``, which :func:`~optocool.model.classify`
    must find stable (else :class:`~optocool.errors.Unstable`) and whose
    mirror diffusion must be finite (else
    :class:`~optocool.errors.InvalidParams`): the drift, the diffusion,
    the drift's ``modes`` and, where they are separated, their
    ``inverse`` S^-1 (None where propagators use expm).
    """

    params: NormalizedParams
    drift: np.ndarray = field(init=False, repr=False, compare=False)
    diffusion: np.ndarray = field(init=False, repr=False, compare=False)
    modes: DriftModes = field(init=False, repr=False, compare=False)
    inverse: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = self.params
        classify(p).require_stable()
        modes = drift_modes(p)
        # 2 ((2 n + 1)/Q), not 2 (2 n + 1)/Q, which overflows first; the
        # factor 2 is exact, so the two agree wherever the latter is finite
        # and normal
        diffusion = np.diag([0.0, 2.0 * ((2.0 * p.n_t_i + 1.0) / p.q_factor), 2.0 / p.b, 2.0 / p.b])
        if diffusion[1, 1] == math.inf:  # Q near 1 with 2 n_t_i + 1 near the float range
            raise InvalidParams(f"mirror diffusion overflows at n_t_i={p.n_t_i}, Q={p.q_factor}")
        inverse = np.linalg.inv(modes.vectors) if modes.separated else None
        for name, value in (("drift", drift_matrix(p)), ("diffusion", diffusion),
                            ("modes", modes), ("inverse", inverse)):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class CovarianceState:
    """Symmetrized 4x4 covariance at time t (t in 1/Gamma units)."""

    t: float
    v: np.ndarray


@dataclass(frozen=True, eq=False)
class Trajectory(Sequence):
    """Sampled V(t): a read-only sequence of :class:`CovarianceState`.

    It also holds the samples as read-only arrays: ``t``, shape (n,), in
    1/Gamma units, and ``v``, shape (n, 4, 4). Indexing builds one state
    (its ``v`` a view of the stack); a slice is a Trajectory.
    """

    t: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.t.setflags(write=False)
        self.v.setflags(write=False)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trajectory(self.t[index], self.v[index])
        return CovarianceState(t=float(self.t[index]), v=self.v[index])


@dataclass(frozen=True)
class HomodyneResult:
    """Measured quadrature variance (shot noise = 1), and the rates it was read at.

    ``window`` is the last outer node of the filter's grid, in units of
    1/lo_rate: 11.9958302504 inside the 12/lo_rate window it integrates.
    """

    dx_m2: float
    lo_rate: float     # units of Gamma
    window: float      # units of 1/lo_rate
    demod_rate: float  # units of Gamma


def build_system(params: NormalizedParams) -> LinearSystem:
    """``LinearSystem(params)``, or its :class:`~optocool.errors.Unstable` or
    :class:`~optocool.errors.InvalidParams`."""
    return LinearSystem(params)


def thermal_covariance(params: NormalizedParams) -> CovarianceState:
    """Mirror thermalized at n_t_i, cavity in vacuum, at t = 0."""
    s = 2.0 * params.n_t_i + 1.0
    return CovarianceState(t=0.0, v=np.diag([s, s, 1.0, 1.0]))


def physicality_defect(v: np.ndarray):
    """Smallest eigenvalue of V + iJ; >= 0 for a physical state.

    ``v`` may be one 4x4 covariance (a float is returned) or a stack of
    shape (..., 4, 4) (an array of the leading shape is returned).
    """
    defect = np.linalg.eigvalsh(v + 1j * SYMPLECTIC_FORM)[..., 0]
    return float(defect) if defect.ndim == 0 else defect


def lyapunov_steady_state(sys: LinearSystem) -> CovarianceState:
    """Steady covariance from A V + V A^T + D = 0.

    Where the modes are separated (``sys.inverse`` is not None) the
    solve runs in the drift's eigenbasis (:func:`_modal_lyapunov`);
    elsewhere, or where that solve's residual misses the test below, it
    is the Bartels-Stewart solve of scipy.linalg. The modal solve keeps
    the polished eigenvalues' small real parts, which set V at high Q:
    at b=0.342, phi=-0.0133, phi_nl=3.35e-4, Q=2.02e5, n_t_i=33.4 it
    meets the residue sums to 2.2e-15, where Bartels-Stewart is 1.7e-9
    off.

    The residual is verified below 1e-12 (relative to ||V||). It is
    taken on U = V / max|V|, and both norms likewise, so that the test
    still means something where ||V||^2 or A V overflows. The solve is
    linear in D, so it runs on D / s with s the power of two at or below max|D|,
    which keeps a huge diffusion inside the solver's range and changes no
    rounding. V is symmetrized as V/2 + V^T/2, which is V + V^T halved
    wherever that sum does not overflow (halving a normal float is exact).
    """
    a, d = sys.drift, sys.diffusion
    s = math.ldexp(0.5, math.frexp(float(np.max(np.abs(d))))[1])  # 2^1024 would overflow
    solves = (_bartels_stewart,) if sys.inverse is None else (_modal_lyapunov, _bartels_stewart)
    for solve in solves:
        with np.errstate(all="ignore"):  # an overflow or a nan fails the test
            v = solve(sys, d / s) * s
            v = 0.5 * v + 0.5 * v.T
            scale = np.max(np.abs(v))
            u = v / scale
            resid = np.linalg.norm(a @ u + u @ a.T + d / scale)
            ok = resid <= 1e-12 * max(1.0 / scale, np.linalg.norm(u))
        if ok:
            return CovarianceState(t=math.inf, v=v)
    raise SolverFailure(f"steady-state residual {resid:.3e} * max|V| too large")


def _modal_lyapunov(sys: LinearSystem, d: np.ndarray) -> np.ndarray:
    """V = S W S^T with W_ij = -(S^-1 d S^-T)_ij / (lambda_i + lambda_j).

    A = S diag(lambda) S^-1 turns A V + V A^T + d = 0 into one division
    per entry of W; the real part of S W S^T is V.
    """
    vectors, inverse = sys.modes.vectors, sys.inverse
    lam = np.array(sys.modes.eigenvalues)
    w = (inverse @ d @ inverse.T) / -np.add.outer(lam, lam)
    return (vectors @ w @ vectors.T).real


def _bartels_stewart(sys: LinearSystem, d: np.ndarray) -> np.ndarray:
    """V solving A V + V A^T + d = 0 by scipy's Bartels-Stewart solve."""
    from scipy.linalg import solve_continuous_lyapunov

    with warnings.catch_warnings():  # a perturbed solve warns; the residual test decides
        warnings.simplefilter("ignore", RuntimeWarning)
        return solve_continuous_lyapunov(sys.drift, -d)


def steady_variances(sys: LinearSystem) -> VarianceResult:
    """Mirror block of the Lyapunov steady state as a VarianceResult."""
    v = lyapunov_steady_state(sys).v
    return VarianceResult.from_variances(
        float(v[0, 0]), float(v[1, 1]),
        method=Method.LYAPUNOV,
        noise_model=ThermalNoiseModel.MARKOV_FLAT,
    )


def evolve_covariance(
    sys: LinearSystem,
    v0: CovarianceState | None = None,
    t_end: float | None = None,
    *,
    n_samples: int = 201,
    t_eval=None,
) -> Trajectory:
    """Covariance V(t) solving dV/dt = A V + V A^T + D from v0 (1/Gamma units).

    Exact propagation V(t) = V_ss + e^{A tau} (V0 - V_ss) e^{A^T tau},
    tau = t * Q, at ``n_samples`` evenly spaced times on [0, t_end] or
    at the given ``t_eval`` (finite, >= 0, and <= t_end where given).
    ``t_end`` None is the settle window ln(max(1, max|V0|) / 1e-12) /
    (2 |Re lambda_slow| Q), in which V - V_ss, decaying as
    e^{2 Re lambda_slow tau}, shrinks by 1e-12 / max(1, max|V0|). The
    cost does not depend on Q or on t_end. Default v0: thermal mirror,
    vacuum field (cooling switched on at t = 0). Returns a
    :class:`Trajectory` of states, with the ``t`` and ``v`` arrays.

    Raises
    ------
    InvalidParams
        If v0 has a non-finite entry or one so large that the propagation
        overflows, t_end (given or settled) is not finite and > 0, a
        ``t_eval`` time is not finite, >= 0 and <= t_end, or, where
        ``t_eval`` is not given, ``n_samples`` is not an integer >= 2 (a
        bool is not one) or numpy cannot lay out that many times (a count
        past its largest array or the memory).
    NonPhysical
        If a sample violates V + iJ >= 0 beyond -1e-9 times the scale
        of v0. Besides a propagator failure this can be the model: the
        flat mirror bath is not completely positive, so a mirror that
        starts near its ground state at low Q leaves the physical set.
    SolverFailure
        If the settle window is asked for and the slowest drift mode does
        not decay in floating point.
    """
    if v0 is None:
        v0 = thermal_covariance(sys.params)
    if t_end is None and t_eval is None:
        slowest = max(z.real for z in sys.modes.eigenvalues)
        if not slowest < 0.0:  # classify found it stable; its decay is below round-off
            raise SolverFailure(f"the slowest drift mode does not decay in floating point ({slowest})")
        # max(1, max|V0|) over the finite entries (a non-finite v0 fails in
        # _transient); a difference of logs, as max|V0| / 1e-12 can overflow
        scale = np.max(np.abs(v0.v), initial=1.0, where=np.isfinite(v0.v))
        t_end = (math.log(scale) - math.log(1e-12)) / (2.0 * -slowest * sys.params.q_factor)
    if t_end is not None and not 0.0 < t_end < math.inf:
        raise InvalidParams(f"t_end must be finite and > 0, got {t_end}")
    if t_eval is None:
        if (isinstance(n_samples, bool) or not isinstance(n_samples, (int, np.integer))
                or n_samples < 2):
            raise InvalidParams(f"n_samples must be an integer >= 2, got {n_samples!r}")
        try:
            t_eval = np.linspace(0.0, t_end, n_samples)
        except (ValueError, MemoryError) as exc:
            raise InvalidParams(f"cannot build a grid of {n_samples} samples ({exc})") from None
    else:
        t_eval = np.array(t_eval, dtype=float)  # a copy: the Trajectory makes it read-only
        limit = math.inf if t_end is None else t_end
        if not np.all((t_eval >= 0) & (t_eval < math.inf) & (t_eval <= limit)):
            raise InvalidParams(f"t_eval must be finite and lie within [0, {limit}]")
    return Trajectory(t_eval, _transient(sys, v0, t_eval)[0][:, _PAIR_OF])


def output_variance_track(trajectory: Trajectory) -> np.ndarray:
    """Equal-time output-field correlations C_x(t,t), C_y(t,t) in kappa units.

    Smooth part only: C_a(t,t)/kappa = 2 (V_aa(t) - 1), the shot-noise
    spike being excluded. Reads the ``v`` stack of a :class:`Trajectory`
    from :func:`evolve_covariance` and returns an (n, 2) array aligned
    with its samples, or :class:`~optocool.errors.InvalidParams` where a
    field variance is so large that 2 (V_aa - 1) overflows.
    """
    with np.errstate(over="ignore"):  # the finiteness test follows
        track = 2.0 * (trajectory.v[:, [2, 3], [2, 3]] - 1.0)
    if not np.all(np.isfinite(track)):
        raise InvalidParams("output correlation 2 (V_aa - 1) overflows")
    return track


def matched_filter_pairs(window: float):
    """Gauss-Legendre nodes/weights on the triangle 0 <= t' <= t <= window.

    The correlation kernel is smooth on each causal ordering but kinked
    across the diagonal, so the square is integrated as twice the lower
    triangle: 64 nodes in t and 32 in t' under each, as (t, t') rows of
    ``times``. Times are in the same units as the trajectory (1/Gamma).
    """
    if not 0.0 < window < math.inf:
        raise InvalidParams(f"window must be finite and > 0, got {window}")
    (xo, wo), (xi, wi) = _OUTER_RULE, _INNER_RULE
    n_inner = len(xi)
    t_out = 0.5 * window * (xo + 1.0)
    w_out = 0.5 * window * wo
    inner_t = np.outer(0.5 * t_out, xi + 1.0)
    inner_w = np.outer(0.5 * t_out, wi)
    times = np.column_stack([np.repeat(t_out, n_inner), inner_t.ravel()])
    with np.errstate(over="ignore"):  # the finiteness test follows
        weights = (w_out[:, None] * inner_w).ravel()
    if not np.all(np.isfinite(weights)):
        raise InvalidParams(f"window {window} too long: its quadrature weights overflow")
    return times, weights


def _propagators(sys: LinearSystem, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(A tau) for every tau, as coefficients c and a basis B.

    exp(A tau_n) = sum_m c[m, n] B[m]. Where the modes are separated, c
    is the (4, n) table of modal phases e^{lambda_k tau} and B the
    rank-one projectors P_k = S[:, k] S^-1[k, :] of the eigenbasis, so no
    4x4 matrix is formed per tau. Elsewhere c holds ``expm`` of A tau,
    one flattened matrix per column, (16, n), and B the 16 unit matrices.
    """
    # e^z underflows to 0 below Re z of about -745; set it there, as exp
    # gives nan where tau |Im lam| overflows on top of the decay (and expm
    # where A tau overflows)
    if sys.inverse is None:
        from scipy.linalg import expm

        live = max(z.real for z in sys.modes.eigenvalues) * taus > -800.0
        out = np.zeros((len(taus), 4, 4))
        out[live] = expm(np.multiply.outer(taus[live], sys.drift))
        return out.reshape(-1, 16).T, _UNIT_BASIS
    basis = sys.modes.vectors.T[:, :, None] * sys.inverse[:, None, :]
    lam = sys.modes.eigenvalues
    # where the eigenvalues come in exact conjugate pairs (the polish keeps
    # them so), e^{conj z} is conj(e^z) bit for bit: two rows of exponentials
    # give all four
    paired = lam[1] == lam[0].conjugate() and lam[3] == lam[2].conjugate()
    z = np.multiply.outer(lam[::2] if paired else lam, taus)
    phases = np.exp(z, out=np.zeros_like(z), where=z.real > -800.0)
    if paired:
        phases = np.stack([phases[0], phases[0].conj(), phases[1], phases[1].conj()])
    return phases, basis


def _physical(u: np.ndarray, tol: float, scale: float = 1.0) -> np.ndarray:
    """For each row of an (n, 10) table: every defect of ``scale * V`` exceeds -tol.

    A row holds a symmetric V at its entries j <= k (``_PAIRS``). The
    test is that V + (iJ + tol I)/scale is positive definite: every pivot
    of its LDL^H factorization, unrolled over the rows, is > 0 (cheaper
    than a batched Cholesky call, let alone the eigenvalues). Each entry
    of the lower triangle is one complex column; no (n, 4, 4) stack is
    formed. A row with a non-finite entry is not physical. With ``scale``
    a power of two the verdict is the one on ``scale * V`` itself, as
    every pivot scales exactly.
    """
    shift = (1j * SYMPLECTIC_FORM + tol * np.eye(4)) / scale
    low = [[u[:, _PAIR_OF[i, j]] + shift[i, j] for j in range(i + 1)]
           for i in range(4)]  # lower triangle, one column per entry
    ok = np.isfinite(u).all(axis=1)
    with np.errstate(all="ignore"):  # a failed pivot leaves inf or nan behind it
        for k in range(4):
            pivot = low[k][k].real
            ok &= pivot > 0.0
            conj = {j: low[j][k].conj() for j in range(k + 1, 4)}
            for i in range(k + 1, 4):
                l_ik = low[i][k] / pivot
                for j in range(k + 1, i + 1):
                    low[i][j] = low[i][j] - l_ik * conj[j]
    return ok


def _transient(
    sys: LinearSystem, v0: CovarianceState | None, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """V(t) = V_ss + e^{A tau} (V0 - V_ss) e^{A^T tau} at each t (1/Gamma units).

    Returns the (n, 10) table of V's entries j <= k (``_PAIRS``), one row
    per time, and the propagators c, B of :func:`_propagators` at those
    times. ``v0`` None is the thermal state, and V(0) is v0 (symmetrized)
    exactly. With e^{A tau} = sum_m c_m B_m,
    V - V_ss = sum_{m<=n} c_m c_n (B_m dV B_n^T + B_n dV B_m^T), halved
    on m = n, with dV = V0 - V_ss: a table of coefficient products, one
    row per sample, times one coefficient matrix read at the 10 entries
    j <= k. That is 10 basis pairs for the 4 modal projectors and 136 for
    the 16 unit matrices of ``expm`` (the sandwich written out). The
    propagation runs in units of s, the power of two at max(|V0|, |V_ss|),
    so that a covariance near the float range stays inside it; a power of
    two changes no rounding. Each sample's physicality within -1e-9 times
    the scale of v0 is the verdict of :func:`_physical` on the table
    alone; the first sample that fails raises.
    """
    if v0 is None:
        v0 = thermal_covariance(sys.params)
    if not np.all(np.isfinite(v0.v)):
        raise InvalidParams("initial covariance v0 must be finite")
    v_ss = lyapunov_steady_state(sys).v
    s = math.ldexp(1.0, math.frexp(max(np.max(np.abs(v0.v)), np.max(np.abs(v_ss))))[1] - 1)
    u0 = 0.5 * (v0.v / s + v0.v.T / s)
    u_ss = v_ss / s
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness test below
        c, basis = _propagators(sys, times * sys.params.q_factor)
        m, n = _BASIS_PAIRS[len(basis)]
        j, k = _PAIRS  # the entries j <= k
        terms = basis[:, None] @ (u0 - u_ss) @ basis.transpose(0, 2, 1)  # [m, n]: B_m dV B_n^T
        coef = np.where((m < n)[:, None, None], terms[m, n] + terms[n, m], terms[m, n])
        # (samples, 10): a row per sample, as BLAS then gives each sample
        # the same bits whatever the stack it is part of
        u = u_ss[j, k] + ((c[m] * c[n]).T @ coef[:, j, k]).real
        u[times == 0.0] = u0[j, k]  # where V_ss + (V0 - V_ss) would round
        v = u * s
    scale = max(1.0, float(np.max(np.abs(v0.v))))
    if not np.all(np.isfinite(v)):
        raise InvalidParams(f"covariance overflows in propagation (v0 scale {scale:.3g})")
    ok = _physical(u, 1e-9 * scale, s)
    if not ok.all():
        k = int(np.argmin(ok))  # the first sample that fails
        raise NonPhysical(
            f"physicality defect {physicality_defect(v[k, _PAIR_OF]):.3e} "
            f"at t={times[k]:.6g} (1/Gamma)"
        )
    return v, c, basis


def _demodulation(t: np.ndarray, phase: float, demod_rate: float) -> np.ndarray:
    """The (n, 2) vectors (cos theta, -sin theta), theta = demod_rate t + phase."""
    theta = demod_rate * t + phase
    return np.column_stack([np.cos(theta), -np.sin(theta)])


def _field_correlations(v_t, ce, cl, c_lag, basis):
    """2 r . q at each pair: the smooth output correlation in kappa units.

    ``v_t`` is the (n, 10) table of V at the earlier times, ``ce`` and
    ``cl`` the demodulation vectors at the earlier and the later times,
    and ``c_lag`` the coefficients of the lag propagator in ``basis``.
    The demodulation vectors are contracted first: r = ce^T (V(t) - 1)_{f.}
    and q = exp(A^T (t'-t))_{.f} cl, f the field rows, so q comes from the
    lag coefficients and the basis's two field rows with no 4x4 matrix
    per pair.
    """
    r = ce[:, :1] * v_t[:, _PAIR_OF[2]] + ce[:, 1:] * v_t[:, _PAIR_OF[3]]  # (n, 4)
    r[:, 2:] -= ce
    q = ((c_lag[:, None] * cl.T).reshape(2 * len(basis), -1).T @ basis[:, 2:].reshape(-1, 4)).real
    return 2.0 * np.einsum("nk,nk->n", r, q)


def homodyne_readout(
    sys: LinearSystem,
    v0: CovarianceState | None,
    quadrature: str,
    lo_rate: float,
    demod_rate: float | None = None,
) -> HomodyneResult:
    """Matched-filter readout of an output quadrature over the cooling transient.

    dx_m^2 = 1 + int int E(t) E(t') C(t, t') dt dt' with the unit-norm
    exponential filter E(t) = sqrt(2 lo_rate) exp(-lo_rate t), lo_rate in
    Gamma units; the leading 1 is the shot noise of the excluded delta
    term. The system starts from ``v0`` at t = 0 (None: thermal mirror,
    vacuum field, as in :func:`evolve_covariance`). For t' <= t the
    regression rule <z(t') z^T(t)>_sym = V(t') exp(A^T (t-t')) composed
    with the input-output relation a_out = sqrt(2 kappa) a - a_in gives
    the smooth correlation

        C(t', t) = 2 kappa [(V(t') - 1) exp(A^T (t-t'))]  (field block),

    read along the quadrature cos(theta) x_out - sin(theta) y_out,
    theta = demod_rate * t (+ pi/2 for ``y_out``): the frame of a local
    oscillator rotating at ``demod_rate`` (Gamma units; 0 is the lab
    frame). ``demod_rate`` None is the cavity detuning phi Q / b (an
    oscillator at the cavity line), and the result reports the rate used.

    The integral is twice the triangle t' <= t of ``matched_filter_pairs(12
    / lo_rate)``: a window of 12 filter lifetimes, 64 outer nodes and 32
    inner ones. It takes one propagator table, at the early times
    t'_ij = t_i (1 + x_j) / 2, each > 0. The Gauss-Legendre nodes are
    antisymmetric, x_{n-1-j} = -x_j, so the lag t_i - t'_ij is the early
    time t'_{i,n-1-j}, and the lag coefficients are that table with each
    outer row's inner columns reversed.

    Raises
    ------
    GridMismatch
        For an unknown quadrature, or a measured variance <= 0 (the grid
        does not resolve the correlation).
    InvalidParams
        If lo_rate is not finite and > 0, the window 12/lo_rate, its
        quadrature weights or the integral are not finite, or v0 is not
        finite or overflows in propagation.
    NonPhysical
        If V(t) at an early time violates V + iJ >= 0 beyond tolerance.
    WindowTooShort
        If the filter mass outside the window could shift the integral
        by more than 1%.
    """
    if quadrature not in _QUAD_PHASE:
        raise GridMismatch(f"unknown quadrature {quadrature!r}")
    phase = _QUAD_PHASE[quadrature]
    if not 0.0 < lo_rate < math.inf:
        raise InvalidParams(f"lo_rate must be finite and > 0, got {lo_rate}")
    if demod_rate is None:
        demod_rate = sys.params.phi * sys.params.q_factor / sys.params.b
    pairs, weights = matched_filter_pairs(_FILTER_LIFETIMES / lo_rate)
    n_inner = len(_INNER_RULE[0])
    t_late, t_early = pairs[:, 0], pairs[:, 1]
    v_t, c, basis = _transient(sys, v0, t_early)
    mirror = np.arange(len(pairs)).reshape(-1, n_inner)[:, ::-1].ravel()
    # t is constant along each outer row
    cl = np.repeat(_demodulation(t_late[::n_inner], phase, demod_rate), n_inner, axis=0)
    values = _field_correlations(
        v_t, _demodulation(t_early, phase, demod_rate), cl, c[:, mirror], basis)
    return _filter_sum(pairs, weights, values, sys.params, lo_rate, demod_rate)


def _filter_sum(times, weights, values, params, lo_rate, demod_rate) -> HomodyneResult:
    """1 + the filter-weighted sum of the grid ``values`` over the (t, t') ``times``.

    The window is the latest time. The sum must be finite, the filter
    mass past the window must bound a shift of at most 1%, and the
    variance must come out > 0.
    """
    window = float(times.max())
    kappa_over_gamma = params.q_factor / params.b
    with np.errstate(all="ignore"):  # the finiteness test follows
        env = 2.0 * lo_rate * np.exp(-lo_rate * times.sum(axis=1))
        # kappa/Gamma takes the kernel back to 1/Gamma-time rate units; it
        # scales the weights, not the kernel, which alone may overflow
        integral = 2.0 * float(np.sum(weights * env * kappa_over_gamma * values))
    if not math.isfinite(integral):
        raise InvalidParams(f"matched-filter integral is not finite at lo_rate={lo_rate}")

    x = math.exp(-lo_rate * window)
    # max|values| * kappa/Gamma may overflow where the bound does not
    tail = float(np.max(np.abs(values))) * (
        kappa_over_gamma * ((2.0 / lo_rate) * (2.0 * x - x * x)))
    if tail > 0.01 * abs(integral):
        raise WindowTooShort(
            f"truncation bound {tail:.3e} exceeds 1% of integral {integral:.3e}"
        )
    if 1.0 + integral <= 0.0:
        raise GridMismatch(
            f"measured variance {1.0 + integral:.3g} <= 0: "
            "the grid does not resolve the correlation"
        )
    return HomodyneResult(
        dx_m2=1.0 + integral, lo_rate=lo_rate, window=window * lo_rate, demod_rate=demod_rate
    )
