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
V_ss the Lyapunov steady state and e^{A tau} taken from one
eigendecomposition of A (``expm`` when its eigenvectors are ill
conditioned); see C. F. Van Loan, IEEE TAC 23(3), 1978. Exposed
timestamps are in units of 1/Gamma; the propagator's argument is in
units of 1/Omega_m (tau = t * Q).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import solve_ivp  # noqa: F401  unused; perfbench/tracer.py wraps it
from scipy.linalg import expm, solve_continuous_lyapunov

from .errors import (
    GridMismatch,
    InvalidParams,
    NonPhysical,
    SolverFailure,
    Unstable,
    WindowTooShort,
)
from .model import NormalizedParams, classify, drift_matrix
from .spectra import Method, ThermalNoiseModel, VarianceResult

__all__ = [
    "SYMPLECTIC_FORM",
    "LinearSystem",
    "CovarianceState",
    "TwoTimeGrid",
    "HomodyneResult",
    "build_system",
    "thermal_covariance",
    "physicality_defect",
    "lyapunov_steady_state",
    "steady_variances",
    "evolve_covariance",
    "output_variance_track",
    "matched_filter_pairs",
    "two_time_correlations",
    "homodyne_variance",
]

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


@dataclass(frozen=True)
class LinearSystem:
    """Drift/diffusion pair of the linearized dynamics, rates in Omega_m units.

    The drift is diagonalized once, at construction, and a drift with an
    eigenvalue of nonnegative real part is rejected with
    :class:`~optocool.errors.Unstable`; every later solve and propagator
    reuses ``eigenvalues`` and ``eigenvectors``.
    """

    drift: np.ndarray
    diffusion: np.ndarray
    params: NormalizedParams
    coupling: float
    basis: tuple[str, ...] = ("dq", "dp", "dx", "dy")
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam, s = np.linalg.eig(self.drift)
        max_re = float(np.max(lam.real))
        if not max_re < 0.0:
            raise Unstable(f"drift eigenvalue with Re = {max_re:.3g} >= 0")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", s)

    @property
    def kappa(self) -> float:
        """Cavity decay rate in Omega_m units."""
        return 1.0 / self.params.b


@dataclass(frozen=True)
class CovarianceState:
    """Symmetrized 4x4 covariance at time t (t in 1/Gamma units)."""

    t: float
    v: np.ndarray


@dataclass(frozen=True)
class TwoTimeGrid:
    """Sampled smooth part of an output-quadrature correlation.

    ``times`` holds (t, t') pairs in 1/Gamma units; ``values`` the
    symmetrized correlation divided by kappa, with the shot-noise delta
    spike excluded by construction. ``demod_rate`` is the local
    oscillator rotation rate in Gamma units (0 means the lab-frame
    quadrature). ``weights``, when present, are the quadrature weights
    of the lower-triangle scheme that generated the pairs.
    """

    times: np.ndarray
    values: np.ndarray
    quadrature: str
    demod_rate: float
    params: NormalizedParams
    weights: np.ndarray | None = None


@dataclass(frozen=True)
class HomodyneResult:
    """Measured quadrature variance (shot noise = 1)."""

    dx_m2: float
    lo_rate: float  # units of Gamma
    window: float   # units of 1/lo_rate


def build_system(params: NormalizedParams) -> LinearSystem:
    """Assemble the drift and diffusion matrices at an operating point.

    Raises
    ------
    Unstable
        If :func:`~optocool.model.classify` finds the point unstable.
    """
    classify(params).require_stable()
    b, q = params.b, params.q_factor
    drift = drift_matrix(params)
    diffusion = np.diag([0.0, 2.0 * (2.0 * params.n_t_i + 1.0) / q, 2.0 / b, 2.0 / b])
    drift.setflags(write=False)
    diffusion.setflags(write=False)
    return LinearSystem(
        drift=drift, diffusion=diffusion, params=params, coupling=float(drift[1, 2])
    )


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
    """Steady covariance from A V + V A^T + D = 0 (Bartels-Stewart solve).

    The residual is verified below 1e-12 (relative to ||V||). Both norms
    are taken after dividing by max|V|, so that the test still means
    something where ||V||^2 overflows. The solve is linear in D, so it
    runs on D / s with s the power of two at max|D|, which keeps a huge
    diffusion inside the solver's range and changes no rounding.
    """
    a, d = sys.drift, sys.diffusion
    s = math.ldexp(1.0, math.frexp(float(np.max(np.abs(d))))[1])
    with warnings.catch_warnings():  # a perturbed solve warns; the residual test decides
        warnings.simplefilter("ignore", RuntimeWarning)
        v = solve_continuous_lyapunov(a, -d / s) * s
    v = 0.5 * (v + v.T)
    scale = np.max(np.abs(v))
    with np.errstate(all="ignore"):  # an overflow or a nan fails the test
        resid = np.linalg.norm((a @ v + v @ a.T + d) / scale)
        ok = resid <= 1e-12 * max(1.0 / scale, np.linalg.norm(v / scale))
    if not ok:
        raise SolverFailure(f"steady-state residual {resid:.3e} * max|V| too large")
    return CovarianceState(t=math.inf, v=v)


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
    t_end: float = 1.0,
    *,
    n_samples: int = 201,
    t_eval=None,
) -> list[CovarianceState]:
    """Covariance V(t) solving dV/dt = A V + V A^T + D from v0 (1/Gamma units).

    Exact propagation V(t) = V_ss + e^{A tau} (V0 - V_ss) e^{A^T tau},
    tau = t * Q, at ``n_samples`` evenly spaced times on [0, t_end] or
    at the given ``t_eval`` (each within [0, t_end]). The cost does not
    depend on Q or on t_end. Default initial condition: thermal mirror,
    vacuum field (cooling switched on at t = 0).

    Raises
    ------
    InvalidParams
        If v0 has a non-finite entry or one so large that the propagation
        overflows, or a ``t_eval`` time lies outside [0, t_end].
    NonPhysical
        If a sample violates V + iJ >= 0 beyond -1e-9 times the scale
        of v0. Besides a propagator failure this can be the model: the
        flat mirror bath is not completely positive, so a mirror that
        starts near its ground state at low Q leaves the physical set.
    """
    if not 0.0 < t_end < math.inf:
        raise InvalidParams(f"t_end must be finite and > 0, got {t_end}")
    if t_eval is None:
        t_eval = np.linspace(0.0, t_end, n_samples)
    else:
        t_eval = np.asarray(t_eval, dtype=float)
        if not np.all((t_eval >= 0) & (t_eval <= t_end)):
            raise InvalidParams(f"t_eval must lie within [0, {t_end}]")
    v = _transient(sys, v0, t_eval)
    return [CovarianceState(t=float(t), v=vt) for t, vt in zip(t_eval, v)]


def output_variance_track(trajectory) -> np.ndarray:
    """Equal-time output-field correlations C_x(t,t), C_y(t,t) in kappa units.

    Smooth part only: C_a(t,t)/kappa = 2 (V_aa(t) - 1), the shot-noise
    spike being excluded. Returns an (n, 2) array aligned with the
    trajectory samples.
    """
    v = np.array([state.v for state in trajectory]).reshape(-1, 4, 4)
    return 2.0 * (v[:, [2, 3], [2, 3]] - 1.0)


def matched_filter_pairs(window: float, n_outer: int = 64, n_inner: int = 32):
    """Gauss-Legendre nodes/weights on the triangle 0 <= t' <= t <= window.

    The correlation kernel is smooth on each causal ordering but kinked
    across the diagonal, so the square is integrated as twice the lower
    triangle. Times are in the same units as the trajectory (1/Gamma).
    """
    if not 0.0 < window < math.inf:
        raise InvalidParams(f"window must be finite and > 0, got {window}")
    xo, wo = leggauss(n_outer)
    xi, wi = leggauss(n_inner)
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


def _propagators(sys: LinearSystem, taus: np.ndarray) -> np.ndarray:
    """exp(A tau) for every tau, by eigendecomposition when well conditioned."""
    a, lam, s = sys.drift, sys.eigenvalues, sys.eigenvectors
    if np.linalg.cond(s) < 1e8:
        s_inv = np.linalg.inv(s)
        phases = np.exp(np.multiply.outer(taus, lam))  # (n, 4)
        out = np.einsum("ik,nk,kj->nij", s, phases, s_inv).real
        return out
    return np.array([expm(a * tau) for tau in taus]).reshape(-1, 4, 4)


def _physical(v: np.ndarray, tol: float) -> bool:
    """True when every defect of the (..., 4, 4) stack ``v`` exceeds -tol.

    V + iJ + tol I is positive definite exactly then, so one batched
    Cholesky factorization decides it, far cheaper than the eigenvalues.
    NaN input yields NaN factors rather than an error, hence the finiteness
    test.
    """
    try:
        chol = np.linalg.cholesky(v + (1j * SYMPLECTIC_FORM + tol * np.eye(4)))
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(np.isfinite(chol)))


def _transient(
    sys: LinearSystem, v0: CovarianceState | None, times: np.ndarray
) -> np.ndarray:
    """V(t) = V_ss + e^{A tau} (V0 - V_ss) e^{A^T tau} at each t (1/Gamma units).

    ``v0`` None is the thermal state. The stack is symmetrized and
    checked for physicality within -1e-9 times the scale of v0.
    """
    if v0 is None:
        v0 = thermal_covariance(sys.params)
    if not np.all(np.isfinite(v0.v)):
        raise InvalidParams("initial covariance v0 must be finite")
    v_ss = lyapunov_steady_state(sys).v
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness test below
        e = _propagators(sys, times * sys.params.q_factor)
        v = v_ss + e @ (v0.v - v_ss) @ e.transpose(0, 2, 1)
    v = 0.5 * (v + v.transpose(0, 2, 1))

    scale = max(1.0, float(np.max(np.abs(v0.v))))
    tol = 1e-9 * scale
    if not _physical(v, tol):
        if not np.all(np.isfinite(v)):
            raise InvalidParams(f"covariance overflows in propagation (v0 scale {scale:.3g})")
        defects = physicality_defect(v)
        bad = np.flatnonzero(~(defects >= -tol))
        if bad.size:
            k = bad[0]
            raise NonPhysical(
                f"physicality defect {defects[k]:.3e} at t={times[k]:.6g} (1/Gamma)"
            )
    return v


def two_time_correlations(
    sys: LinearSystem,
    v0: CovarianceState | None,
    quadrature: str,
    pairs,
    *,
    demod_rate: float = 0.0,
    weights=None,
) -> TwoTimeGrid:
    """Smooth symmetrized correlation of an output quadrature on (t, t') pairs.

    The system starts from ``v0`` at t = 0 (None: thermal mirror, vacuum
    field, as in :func:`evolve_covariance`). For t' >= t the
    intracavity correlation follows the regression rule
    <z(t) z^T(t')>_sym = V(t) exp(A^T (t'-t)); composing it with the
    input-output relation a_out = sqrt(2 kappa) a - a_in cancels the
    input cross terms into

        C(t, t') = 2 kappa [(V(t) - 1) exp(A^T (t'-t))]  (field block),

    whose shot-noise delta has been dropped. V(t) at each pair's earlier
    time is propagated exactly from v0 and checked for physicality.

    With ``demod_rate`` = Delta/Gamma the stored scalar is the
    correlation of the co-rotating quadrature cos(theta) x_out -
    sin(theta) y_out, theta = demod_rate * t (+ pi/2 for ``y_out``):
    the frame in which a sideband-matched local oscillator measures.
    At the default 0 this is the plain lab-frame quadrature.

    Values are reported in kappa units; times in 1/Gamma units.

    Raises
    ------
    GridMismatch
        For an unknown quadrature, or pairs that are not an (n, 2) array
        of finite times >= 0.
    InvalidParams
        If v0 has a non-finite entry or one so large that the propagation
        overflows.
    NonPhysical
        If V(t) at some pair violates V + iJ >= 0 beyond tolerance.
    """
    if quadrature not in _QUAD_PHASE:
        raise GridMismatch(f"unknown quadrature {quadrature!r}")
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GridMismatch(f"pairs must be (n, 2), got shape {pairs.shape}")
    if not np.all((pairs >= 0) & (pairs < math.inf)):
        raise GridMismatch("two-time correlations need finite t, t' >= 0")

    t_early = pairs.min(axis=1)
    t_late = pairs.max(axis=1)
    v_t = _transient(sys, v0, t_early)
    e_lag = _propagators(sys, (t_late - t_early) * sys.params.q_factor)
    block = ((v_t - np.eye(4)) @ e_lag.transpose(0, 2, 1))[:, 2:, 2:]

    th_e = demod_rate * t_early + _QUAD_PHASE[quadrature]
    th_l = demod_rate * t_late + _QUAD_PHASE[quadrature]
    ce = np.column_stack([np.cos(th_e), -np.sin(th_e)])
    cl = np.column_stack([np.cos(th_l), -np.sin(th_l)])
    values = 2.0 * np.einsum("ni,nij,nj->n", ce, block, cl)

    return TwoTimeGrid(
        times=pairs,
        values=values,
        quadrature=quadrature,
        demod_rate=demod_rate,
        params=sys.params,
        weights=None if weights is None else np.asarray(weights, dtype=float),
    )


def homodyne_variance(grid: TwoTimeGrid, lo_rate: float) -> HomodyneResult:
    """Variance measured with a temporally matched local oscillator.

    dx_m^2 = 1 + int int E(t) E(t') C(t, t') dt dt' with the unit-norm
    exponential filter E(t) = sqrt(2 lo_rate) exp(-lo_rate t); the
    leading 1 is the shot noise of the excluded delta term. ``lo_rate``
    is in Gamma units, matching the grid's time units.

    Raises
    ------
    GridMismatch
        If the grid carries no quadrature weights or no pairs, or if the
        measured variance comes out <= 0 (the grid misses the correlation).
    WindowTooShort
        If the filter mass outside the window could shift the integral
        by more than 1%.
    """
    if grid.weights is None:
        raise GridMismatch("homodyne integration needs a grid built with weights")
    if not len(grid.values):
        raise GridMismatch("homodyne integration needs a grid with at least one pair")
    if not 0.0 < lo_rate < math.inf:
        raise InvalidParams(f"lo_rate must be finite and > 0, got {lo_rate}")
    window = float(grid.times.max())
    if window < 5.0 / lo_rate:
        raise WindowTooShort(
            f"window {window:.3g} shorter than 5/lo_rate = {5.0 / lo_rate:.3g}"
        )

    kappa_over_gamma = grid.params.q_factor / grid.params.b
    c_vals = grid.values * kappa_over_gamma  # back to 1/Gamma-time rate units
    with np.errstate(all="ignore"):  # the finiteness test follows
        env = 2.0 * lo_rate * np.exp(-lo_rate * grid.times.sum(axis=1))
        integral = 2.0 * float(np.sum(grid.weights * env * c_vals))
    if not math.isfinite(integral):
        raise InvalidParams(f"matched-filter integral is not finite at lo_rate={lo_rate}")

    c_max = float(np.max(np.abs(c_vals)))
    x = math.exp(-lo_rate * window)
    tail = c_max * (2.0 / lo_rate) * (2.0 * x - x * x)
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
        dx_m2=1.0 + integral, lo_rate=lo_rate, window=window * lo_rate
    )
