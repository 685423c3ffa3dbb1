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

The transient is propagated exactly: V(t) = V_ss + e^{A tau} (V0 - V_ss) e^{A^T tau}, V_ss
the Lyapunov steady state. Both read one basis at every stable point, Jordan blocks and
exceptional points included (Moler & Van Loan, SIAM Rev. 45, 3, 2003): e^{A tau} = sum_m
c_m(tau) B_m, B the Newton basis of each cluster of eigenvalues (:func:`_basis`) and c_m the
divided difference of e^{z tau} over its nodes; no 4x4 matrix is formed per sample.

The output field is read by one route, :func:`homodyne_readout`: the
matched filter over the two-time correlations of the reflected field on
a fixed Gauss-Legendre triangle. Each correlation contracts its
demodulation vectors with V(t)'s two field rows and with the lag
coefficients times the basis's field rows. On that triangle the lags
are the early times mirrored, so the readout reads both from one
table. Exposed timestamps are in units of 1/Gamma; the propagator's
argument is in units of 1/Omega_m (tau = t * Q). The module runs on numpy alone.
"""

from __future__ import annotations

import functools
import math
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
_EYE = np.eye(4)

#: phase of the measured quadrature at t = 0 (``y_out`` lags ``x_out`` by pi/2)
_QUAD_PHASE = {"x_out": 0.0, "y_out": 0.5 * math.pi}

#: the matched filter's window, in lifetimes 1/lo_rate of the local oscillator
_FILTER_LIFETIMES = 12.0
#: its grid's Gauss-Legendre rules, built once: 64 outer nodes, 32 inner ones
_OUTER_RULE, _INNER_RULE = leggauss(64), leggauss(32)
for _a in (*_OUTER_RULE, *_INNER_RULE):
    _a.setflags(write=False)

#: the 10 index pairs j <= k of a symmetric 4x4 matrix (and the basis
#: pairs m <= n), and where each entry (j, k) of the matrix sits among them
_PAIRS = np.triu_indices(4)
_PAIR_OF = np.empty((4, 4), dtype=int)
_PAIR_OF[_PAIRS] = _PAIR_OF[_PAIRS[::-1]] = np.arange(10)
#: 1/2 at the basis pairs m = n, where a pair's two terms are one, else 1
_HALVED = np.where(_PAIRS[0] == _PAIRS[1], 0.5, 1.0)
#: eigenvalues closer than this times ||A|| share a cluster of the propagator basis
_CLUSTER_GAP = 1e-2
#: the pairs i > j of eigenvalues that a pattern of the propagator basis compares
_LOWER = [(i, j) for i in range(1, 4) for j in range(i)]


@dataclass(frozen=True)
class LinearSystem:
    """Drift/diffusion pair of the linearized dynamics, rates in Omega_m units.

    Derived once from ``params``, which :func:`~optocool.model.classify` must
    find stable (else :class:`~optocool.errors.Unstable`) and whose mirror
    diffusion must be finite (else :class:`~optocool.errors.InvalidParams`).
    """

    params: NormalizedParams
    drift: np.ndarray = field(init=False, repr=False, compare=False)
    diffusion: np.ndarray = field(init=False, repr=False, compare=False)
    modes: DriftModes = field(init=False, repr=False, compare=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    clusters: tuple = field(init=False, repr=False, compare=False)
    basis: np.ndarray = field(init=False, repr=False, compare=False)

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
        drift = drift_matrix(p)
        for name, value in (("drift", drift), ("diffusion", diffusion), ("modes", modes),
                            *zip(("nodes", "clusters", "basis"), _basis(drift, modes))):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)


def _basis(a: np.ndarray, modes: DriftModes) -> tuple[np.ndarray, tuple, np.ndarray]:
    """The nodes, the (start, stop, twin) of their clusters (:func:`_layout`), and the basis B:

    each cluster's P_C, (A - z_0) P_C, ...; P_C = X_C W_C, X_C the null space of prod_C (A - z)
    (one batched SVD) and W_C its rows of W = X^-1, so that the P_C sum to I.
    """
    lam, gap = modes.eigenvalues, _CLUSTER_GAP * modes.norm
    order, clusters, own, pick, mine = _layout(tuple(
        [(abs(lam[i] - lam[j]) <= gap, lam[i] == lam[j].conjugate()) for i, j in _LOWER]))
    nodes = np.array([lam[i] for i in order])
    factors = (a - np.multiply.outer(nodes, _EYE)) / modes.norm  # (A - z) / ||A||
    with np.errstate(all="ignore"):
        try:
            rows = np.linalg.svd([functools.reduce(np.matmul, factors[s:e])
                                  for s, e in own])[2][pick]
            np.conjugate(rows, out=rows, where=mine)  # X^T: each node's null vector
            w = np.linalg.inv(rows.T)  # its rows span the left null spaces
        except np.linalg.LinAlgError as exc:
            raise SolverFailure(f"no propagator basis: {exc}") from None
        basis = rows[:, :, None] * w[:, None, :]  # each node's x w^T
        for s, e in ((s, e) for s, e, _ in clusters if e - s > 1):  # twins too, as W's
            basis[s] = basis[s:e].sum(axis=0)  # rows are conjugates only to round-off
            for m in range(s + 1, e):
                basis[m] = a @ basis[m - 1] - nodes[m - 1] * basis[m - 1]
    return nodes, clusters, basis


@functools.cache
def _layout(pairs: tuple) -> tuple:
    """The clusters of a pattern of eigenvalues, and where :func:`_basis` reads their null spaces.

    ``pairs``: for each i > j (``_LOWER``), are the two within ``_CLUSTER_GAP`` ||A|| (single
    linkage), and conjugates? A twin is the start of the earlier cluster of conjugate nodes.
    """
    label = [0, 1, 2, 3]  # the first index of each eigenvalue's cluster
    for (i, j), (near, _) in zip(_LOWER, pairs):
        if near:
            label = [min(label[i], label[j]) if x in (label[i], label[j]) else x for x in label]
    order = sorted(range(4), key=label.__getitem__)  # a stable sort
    conjugate = {frozenset(ij) for ij, (_, conj) in zip(_LOWER, pairs) if conj}
    clusters, own, stop = [], [], 0
    for size in map(label.count, sorted(set(label))):
        start, stop = stop, stop + size
        twin = next((s for s, e in own if e - s == size and all(
            {order[start + q], order[s + q]} in conjugate for q in range(size))), None)
        clusters.append((start, stop, twin))
        own += [(start, stop)] * (twin is None)
    batch, row, mine = zip(*[([s for s, _ in own].index(s if t is None else t), 4 - e + m,
                              [t is None]) for s, e, t in clusters for m in range(s, e)])
    return order, tuple(clusters), own, (list(batch), list(row)), np.array(mine)


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
    """Steady covariance from A V + V A^T + D = 0, in the propagator basis (:func:`_steady`).

    The residual is verified below 1e-12 of ||V|| on V over the power of two at or below
    max|V| (||V||^2 and A V stay finite), else :class:`~optocool.errors.SolverFailure`; where
    ||A|| is large (small b), V gains the solution for its residual, twice at most.
    """
    a, d = sys.drift, sys.diffusion
    s = math.ldexp(0.5, math.frexp(max(d.diagonal().tolist()))[1])  # 2^1024 would overflow
    with np.errstate(all="ignore"):  # an overflow or a nan fails the test
        v = _steady(sys, d / s) * s
        for refined in range(3):
            v = 0.5 * v + 0.5 * v.T
            scale = math.ldexp(0.5, math.frexp(float(np.abs(v).max()))[1])  # U = V exactly
            u = v / scale
            r = a @ u + u @ a.T + d / scale
            resid = math.sqrt(r.ravel().dot(r.ravel()))  # the Frobenius norms, as numpy's
            if resid <= 1e-12 * max(1.0 / scale, math.sqrt(u.ravel().dot(u.ravel()))):
                return CovarianceState(t=math.inf, v=v)
            if refined < 2:
                v = v + _steady(sys, r) * scale
    raise SolverFailure(f"steady-state residual {resid:.3e} * max|V| too large")


def _steady(sys: LinearSystem, r: np.ndarray) -> np.ndarray:
    """X with A X + X A^T + r = 0: sum_mn I_mn B_m r B_n^T, I_mn the integral of c_m c_n.

    I_mn is -1/(x + y) divided over the nodes of B_m and B_n (the Leibniz rule). -X is its
    adjoint W_mn = (B_m r B_n^T - W_{m+1,n} - W_{m,n+1}) / (z_m + z_n) summed over first
    nodes: it divides by eigenvalue sums alone, a modal solve where each cluster is one node.
    """
    heads = np.bincount([start for start, _, _ in sys.clusters], minlength=4) * 1.0  # first nodes
    flat = sys.basis.reshape(16, 4)  # [m, i, n, k]: (B_m r B_n^T)_ik
    sandwich = (flat @ r @ flat.T).reshape(4, 4, 4, 4)
    sums = (sys.nodes[:, None] + sys.nodes).reshape(4, 1, 4, 1)
    w = sandwich / sums
    for _ in range(8 - 2 * len(sys.clusters)):  # a level each: >= 2 (largest size - 1)
        shift = np.diag(1.0 - heads[1:], k=1)  # m -> m + 1 within a cluster
        w = (sandwich - np.einsum("mp,pinj->minj", shift, w)
             - np.einsum("np,mipj->minj", shift, w)) / sums
    return -np.einsum("m,minj,n->ij", heads, w, heads).real


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
    if not np.isfinite(track).all():
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
    if not np.isfinite(weights).all():
        raise InvalidParams(f"window {window} too long: its quadrature weights overflow")
    return times, weights


def _propagators(sys: LinearSystem, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(A tau_n) = sum_m c[m, n] B[m] for every tau: the coefficients c and the basis B.

    c[m] = e^{z tau} at a cluster's first node (a twin's are conjugates), 0 wherever Re z tau
    < -800 at each node (e^z underflows near -745, and tau * 0 or a huge tau |Im z| gives nan).
    """
    nodes, c = sys.nodes, np.empty((4, len(taus)), dtype=complex)
    first = [s for s, e, twin in sys.clusters if twin is None]
    z = np.multiply.outer(nodes[first], taus)
    c[first] = np.exp(z, out=np.zeros(z.shape, dtype=complex), where=z.real > -800.0)
    for s, e, twin in sys.clusters:
        for m in range(s + 1, e if twin is None else s):
            live = max(nodes[s:m + 1].real) * taus > -800.0
            c[m] = np.where(live, _divided_exp(nodes[s:m + 1], taus), 0.0)
        if twin is not None:
            c[s:e] = c[twin:twin + e - s].conj()
    return c, sys.basis


def _divided_exp(nodes: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """The divided difference of z -> e^{z tau} over ``nodes`` at each tau.

    Accurate at coincident nodes (McCurdy, Ng & Parlett, Math. Comp. 43, 501, 1984): expm1 for
    two; for more, the Taylor series about their mean where spread * tau <= 1, else the
    recursion over the farthest pair.
    """
    k = len(nodes)
    if k == 2:
        a, b = sorted(nodes, key=lambda z: -z.real)
        return np.exp(a * taus) * (-np.expm1((b - a) * taus) / (a - b) if a != b else taus)
    gaps = np.abs(np.subtract.outer(nodes, nodes))
    i, j = np.unravel_index(np.argmax(gaps), gaps.shape)
    far = (_divided_exp(np.delete(nodes, i), taus)
           - _divided_exp(np.delete(nodes, j), taus)) / (nodes[j] - nodes[i])
    # e^{mu tau} tau^(k-1) sum_n h_n(u) / (n + k - 1)!, u = (z - mu) tau and
    # h_n the complete homogeneous polynomials of u, over its prefixes
    u = np.multiply.outer(nodes - nodes.mean(), taus)
    h, total = np.ones_like(u), 0.0
    for n in range(20):  # 1/20! < eps / 100
        total = total + h[-1] / math.factorial(n + k - 1)
        h = np.cumsum(u * h, axis=0)  # h_n(u_1..u_r) = h_n(u_1..u_r-1) + u_r h_n-1(u_1..u_r)
    near = np.exp(nodes.mean() * taus) * taus ** (k - 1) * total
    return np.where(gaps[i, j] * taus <= 1.0, near, far)


def _physical(u: np.ndarray, tol: float, scale: float = 1.0) -> np.ndarray:
    """For each row of an (n, 10) table: every defect of ``scale * V`` exceeds -tol.

    A row holds a symmetric V at its entries j <= k (``_PAIRS``). The test is that
    V + (iJ + tol I)/scale is positive definite: every pivot of its LDL^H factorization,
    unrolled over the rows, is > 0 (cheaper than a batched Cholesky call, let alone the
    eigenvalues). Each entry of the lower triangle is one complex column; no (n, 4, 4) stack
    is formed. A row with a non-finite entry is not physical. With ``scale`` a power of two
    the verdict is the one on ``scale * V`` itself, as every pivot scales exactly.
    """
    shift = (1j * SYMPLECTIC_FORM + tol * _EYE) / scale
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

    Returns the (n, 10) table of V's entries j <= k (``_PAIRS``) and the propagators c, B
    there; ``v0`` None is the thermal state, V(0) is v0, and V - V_ss = sum_{m<=n} c_m c_n
    (B_m dV B_n^T + B_n dV B_m^T), dV = V0 - V_ss (halved on m = n), in units of the power of
    two at max(|V0|, |V_ss|). The first sample :func:`_physical` finds unphysical raises.
    """
    if v0 is None:
        v0 = thermal_covariance(sys.params)
    if not np.isfinite(v0.v).all():
        raise InvalidParams("initial covariance v0 must be finite")
    v_ss = lyapunov_steady_state(sys).v
    s = math.ldexp(1.0, math.frexp(max(np.abs(v0.v).max(), np.abs(v_ss).max()))[1] - 1)
    u0 = 0.5 * (v0.v / s + v0.v.T / s)
    u_ss = v_ss / s
    with np.errstate(all="ignore"):  # the finiteness test below
        c, basis = _propagators(sys, times * sys.params.q_factor)
        (m, n), (j, k) = _PAIRS, _PAIRS  # the basis pairs m <= n, the entries j <= k
        flat = basis.reshape(16, 4)  # [m, i, n, k]: (B_m dV B_n^T)_ik
        terms = (flat @ (u0 - u_ss) @ flat.T).reshape(4, 4, 4, 4)
        # [entry, pair]: B_m dV B_n^T + B_n dV B_m^T at entry (j, k), halved on m = n
        coef = (terms + terms.transpose(2, 1, 0, 3))[m, j[:, None], n, k[:, None]] * _HALVED
        # (samples, 10): a row per sample, as BLAS then gives each sample the
        # same bits whatever the stack it is part of; the real part alone, as
        # Re c . Re coef - Im c . Im coef, the float views of c and conj(coef)
        u = u_ss[j, k] + (c[m] * c[n]).T.copy().view(float) @ coef.conj().view(float).T
        u[times == 0.0] = u0[j, k]  # where V_ss + (V0 - V_ss) would round
        v = u * s
    scale = max(1.0, float(np.abs(v0.v).max()))
    if not np.isfinite(v).all():
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
    field = basis[:, 2:].reshape(-1, 4).conj().T.copy()  # q is real: Re c . Re B - Im c . Im B
    q = (c_lag[:, None] * cl.T).reshape(len(field.T), -1).T.copy().view(float) @ field.view(float).T
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

    The integral is twice the triangle t' <= t of ``matched_filter_pairs(12 / lo_rate)``: a
    window of 12 filter lifetimes, 64 outer nodes and 32 inner ones. It takes one propagator
    table, at the early times t'_ij = t_i (1 + x_j) / 2, each > 0. The Gauss-Legendre nodes
    are antisymmetric, x_{n-1-j} = -x_j, so the lag t_i - t'_ij is the early time
    t'_{i,n-1-j}, and the lag coefficients are that table with each outer row's inner
    columns reversed.

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
        integral = 2.0 * float((weights * env * kappa_over_gamma * values).sum())
    if not math.isfinite(integral):
        raise InvalidParams(f"matched-filter integral is not finite at lo_rate={lo_rate}")

    x = math.exp(-lo_rate * window)
    # max|values| * kappa/Gamma may overflow where the bound does not
    tail = float(np.abs(values).max()) * (
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
