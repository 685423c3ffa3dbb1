"""Operating-point model of a driven cavity coupled to a movable mirror.

Physical parameters, their dimensionless normalization, the cubic
steady-state (bistability) relation, and the stability classification
that every route (spectrum, adiabatic, Lyapunov, CLI) reads.

All downstream modules work in the normalized coordinates

    b      = Omega_m / kappa    mechanical frequency in cavity linewidths
    phi    = Delta / kappa      effective detuning (signed)
    phi_nl = Delta_nl / kappa   static radiation-pressure detuning shift
    Q      = Omega_m / Gamma    mechanical quality factor
    n_t_i                       initial thermal occupancy of the mirror

where kappa is the cavity amplitude decay rate, Omega_m and Gamma the
mechanical frequency and damping, Delta = Delta_c - Delta_nl the detuning
dressed by the static mirror displacement, and Delta_nl = G^2 |a_ss|^2 /
Omega_m the shift produced by the mean intracavity intensity |a_ss|^2.
Quadratures are normalized so the vacuum variance is 1 ([q, p] = 2i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import constants

from .errors import InvalidParams, NoStableBranch, SolverFailure, Unstable

__all__ = [
    "PhysicalParams",
    "NormalizedParams",
    "Branch",
    "SteadyState",
    "StabilityReport",
    "DriftModes",
    "POLE_SEPARATION_MIN",
    "thermal_occupancy",
    "pole_separation",
    "solve_steady_state",
    "classify",
    "drift_matrix",
    "drift_modes",
    "normalize",
    "denormalize",
]

#: residual tolerance on the normalized steady-state cubic
CUBIC_RESIDUAL_TOL = 1e-10
#: relative separation of two poles at or below which a pole set is not
#: separated (see :func:`pole_separation`): the variance integrals are
#: then not taken by residues at those poles, and the propagator is expm
#: rather than the eigenbasis (the measurement behind it is in the
#: partial fractions of :mod:`optocool.spectra`)
POLE_SEPARATION_MIN = 1e-4


def _domain_problems(obj, rules) -> list:
    """One message per field that is not finite or violates its lower bound.

    ``rules`` holds (field, op, bound) with op ">" or ">=", or None for
    a field that only has to be finite.
    """
    bad = []
    for name, op, bound in rules:
        value = getattr(obj, name)
        if op == ">" and bound < value < math.inf or op == ">=" and bound <= value < math.inf:
            continue
        if not math.isfinite(value):
            bad.append(f"{name} must be finite, got {value}")
        elif op is not None:
            bad.append(f"{name} must be {op} {bound:g}, got {value}")
    return bad


_PHYSICAL_DOMAIN = (
    ("omega_m", ">", 0), ("kappa", ">", 0), ("gamma", ">", 0), ("mass", ">", 0),
    ("cavity_length", ">", 0), ("omega_c", ">", 0), ("delta_c", None, None),
    ("drive_intensity", ">=", 0), ("temperature", ">=", 0),
)
_NORMALIZED_DOMAIN = (
    ("b", ">", 0), ("phi", None, None), ("phi_nl", ">=", 0),
    ("q_factor", ">", 1), ("n_t_i", ">=", 0),
)


def thermal_occupancy(temperature: float, omega_m: float) -> float:
    """Mean thermal phonon number of an oscillator mode.

    Evaluates 1 / (exp(hbar*omega_m / (kB*T)) - 1), with the T = 0 limit
    returned as an exact zero.

    Parameters
    ----------
    temperature : float
        Bath temperature [K], >= 0.
    omega_m : float
        Mechanical angular frequency [rad/s], > 0.
    """
    if omega_m <= 0:
        raise InvalidParams(f"omega_m must be > 0, got {omega_m}")
    if temperature < 0:
        raise InvalidParams(f"temperature must be >= 0, got {temperature}")
    if temperature == 0:
        return 0.0
    x = constants.hbar * omega_m / (constants.k * temperature)
    if x > 700.0:  # expm1 would overflow; occupancy ~ exp(-x)
        return math.exp(-x)
    return 1.0 / math.expm1(x)


@dataclass(frozen=True)
class PhysicalParams:
    """SI operating point of the cavity-mirror system.

    Attributes
    ----------
    omega_m : float
        Mechanical angular frequency [rad/s].
    kappa : float
        Cavity amplitude decay rate [rad/s].
    gamma : float
        Mechanical damping rate [rad/s]; the oscillator must be
        underdamped (gamma < omega_m).
    mass : float
        Effective oscillator mass [kg].
    cavity_length : float
        Cavity length L [m].
    omega_c : float
        Cavity resonance angular frequency [rad/s].
    delta_c : float
        Bare laser-cavity detuning omega_c - omega_L [rad/s], signed.
    drive_intensity : float
        Incident photon flux |a_in|^2 [photons/s].
    temperature : float
        Bath temperature [K].
    """

    omega_m: float
    kappa: float
    gamma: float
    mass: float
    cavity_length: float
    omega_c: float
    delta_c: float
    drive_intensity: float
    temperature: float

    def __post_init__(self):
        bad = _domain_problems(self, _PHYSICAL_DOMAIN)
        if not bad and not self.gamma < self.omega_m:
            bad.append("gamma must be < omega_m (underdamped oscillator)")
        if bad:
            raise InvalidParams(*bad)

    @property
    def coupling_constant(self) -> float:
        """Optomechanical coupling G = (omega_c / L) sqrt(hbar / (M Omega_m))."""
        return (self.omega_c / self.cavity_length) * math.sqrt(
            constants.hbar / (self.mass * self.omega_m)
        )

    @property
    def drive_strength(self) -> float:
        """Normalized drive P = 2 G^2 |a_in|^2 / (Omega_m kappa^2)."""
        g = self.coupling_constant
        return 2.0 * g * g * self.drive_intensity / (self.omega_m * self.kappa**2)


@dataclass(frozen=True)
class NormalizedParams:
    """Dimensionless operating point (b, phi, phi_nl, Q, n_t_i).

    Every field is stored as a float and must be finite, as must the mirror's
    initial variance 2 n_t_i + 1 (n_t_i < 2^1023, about 8.988e307). Stability is
    *reported* by :func:`classify` rather than enforced at construction,
    so that unstable points can be represented, swept over and flagged.
    """

    b: float
    phi: float
    phi_nl: float
    q_factor: float
    n_t_i: float

    def __post_init__(self):
        bad, rules = [], []
        for rule in _NORMALIZED_DOMAIN:
            value = getattr(self, rule[0])
            try:
                object.__setattr__(self, rule[0], float(value))
            except (TypeError, ValueError, OverflowError):
                bad.append(f"{rule[0]} must be a real number, got {value!r}")
            else:
                rules.append(rule)
        bad += _domain_problems(self, rules)
        if not bad and 2.0 * self.n_t_i + 1.0 == math.inf:
            bad.append(f"n_t_i must keep 2 n_t_i + 1 finite (n_t_i < 2**1023), got {self.n_t_i}")
        if bad:
            raise InvalidParams(*bad)

    def replace(self, **kwargs) -> "NormalizedParams":
        return NormalizedParams(**{**vars(self), **kwargs})


@dataclass(frozen=True)
class Branch:
    """One steady-state intensity branch of the cubic."""

    u: float        # Delta_nl / kappa on this branch
    phi_eff: float  # phi_c - u
    stable: bool    # spring margin > 0, the static test (see solve_steady_state)
    marginal: bool


@dataclass(frozen=True)
class SteadyState:
    """All real branches of the steady-state cubic, sorted by u."""

    phi_c: float
    drive: float
    branches: tuple[Branch, ...]

    def stable_branches(self) -> tuple[Branch, ...]:
        return tuple(br for br in self.branches if br.stable)


@dataclass(frozen=True)
class StabilityReport:
    """Verdict of :func:`classify` and the margin it rests on."""

    stable: bool
    reason: str             # "stable", or the first condition that fails
    spring_margin: float    # 1 + phi^2 - 2 phi phi_nl

    def require_stable(self) -> "StabilityReport":
        """This report, or :class:`~optocool.errors.Unstable` with its reason."""
        if not self.stable:
            raise Unstable(self.reason)
        return self


def _spring_margin(phi: float, phi_nl: float) -> float:
    """1 + phi^2 - 2 phi phi_nl: the spring constant dressed by the radiation pressure."""
    return 1.0 + phi * phi - 2.0 * phi * phi_nl


def classify(params: NormalizedParams) -> StabilityReport:
    """Stability of an operating point: the one test every route applies.

    Stable means a Hurwitz characteristic polynomial of the linearized
    drift, p(s) = (s^2 + s/Q + 1)((s + 1/b)^2 + (phi/b)^2) - 2 phi
    phi_nl / b^2, which is also b^-2 times the spectrum's denominator at
    s = -i w. Its constant term a0 is the spring margin over b^2 and its
    other coefficients are positive, so by the Lienard-Chipart form of
    the Routh-Hurwitz test it is Hurwitz exactly when a0 > 0 and
    a3 a2 a1 - a4 a1^2 - a3^2 a0 > 0 (a4 = 1). Unlike the sign of the
    closed-form Gamma_eff of :func:`~optocool.adiabatic.effective_rates`
    (a resonance approximation) the test is exact.
    Unscaled, the determinant overflows below b of about 1e-62, so the
    test reads t^2 p(s), t = min(1, b), and takes its determinant over t:
    positive scales, which keep its sign, and none at b >= 1.
    """
    b, phi, q = params.b, params.phi, params.q_factor
    spring = _spring_margin(phi, params.phi_nl)
    # t = min(1, b) and k = t/b; each a_i below is t^2 times p's (a3 also over t)
    t, k = (b, 1.0) if b < 1.0 else (1.0, 1.0 / b)
    c = 1.0 / q
    e = k * k * (1.0 + phi * phi)
    a3 = 2.0 * k + c * t
    a2 = t * t + e + 2.0 * k * c * t
    a1 = 2.0 * k * t + c * e
    hurwitz = a3 * a2 * a1 - t * a1 * a1 - t * a3 * a3 * k * k * spring

    if not math.isfinite(hurwitz):
        reason = "not finite: the operating point overflows the stability test"
    elif not spring > 0.0:
        reason = f"spring margin {spring:.3g} <= 0 (radiation-pressure spring too soft)"
    elif not hurwitz > 0.0:
        reason = f"Routh-Hurwitz determinant {hurwitz:.3g} <= 0: a drift mode grows"
    else:
        reason = "stable"
    return StabilityReport(reason == "stable", reason, spring)


def drift_matrix(params: NormalizedParams) -> np.ndarray:
    """Drift A of the linearized mirror-field moments, rates in Omega_m units.

    State (dq, dp, dx, dy): mirror position and momentum, cavity amplitude
    and phase quadratures, with the field phase chosen so that the
    radiation-pressure force sits in dx and the backaction in dy:

        dq' =  dp
        dp' = -dq - dp/Q + g dx          g = sqrt(2 phi_nl / b)
        dx' = -dx/b + (phi/b) dy
        dy' = -dy/b - (phi/b) dx + g dq

    The coupling g follows from Delta_nl = G^2 |a_ss|^2 / Omega_m. The
    characteristic polynomial of A is the p(s) of :func:`classify`, so
    its eigenvalues are the poles of the position spectrum; the time
    domain (:mod:`optocool.dynamics`) and the residue sums
    (:mod:`optocool.spectra`) both read this one definition.
    """
    phi, b, q = params.phi, params.b, params.q_factor
    g = math.sqrt(2.0 * params.phi_nl / b)
    return np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-1.0, -1.0 / q, g, 0.0],
            [0.0, 0.0, -1.0 / b, phi / b],
            [g, 0.0, -phi / b, -1.0 / b],
        ]
    )


def pole_separation(poles) -> tuple:
    """Each pole's gap to its nearest neighbour; True if all gap_j > POLE_SEPARATION_MIN |pole_j|.

    The one separation test, of the drift's eigenvalues and of a decoupled
    cavity's poles. ``poles`` is one pole set (a sequence: gaps as a list,
    a bool) or a stack of them (an (n, m) array: gaps as an (n, m) array,
    one verdict per row).
    """
    if isinstance(poles, np.ndarray):
        m = poles.shape[1]
        dist = np.abs(poles[:, :, None] - poles[:, None, :])
        dist[:, range(m), range(m)] = np.inf
        gaps = dist.min(axis=2)
        return gaps, np.all(gaps > POLE_SEPARATION_MIN * np.abs(poles), axis=1)
    gaps = [min([abs(z - poles[m]) for m in range(len(poles)) if m != j])
            for j, z in enumerate(poles)]
    return gaps, all(gap > POLE_SEPARATION_MIN * abs(z) for z, gap in zip(poles, gaps))


class DriftModes(NamedTuple):
    """The eigen-decomposition A = S diag(lambda) S^-1 of the drift.

    For a stack of points each field holds one row per point: arrays of
    shape (n, 4) for ``eigenvalues`` and ``gaps``, (n,) for ``separated``
    and ``norm``, and no ``vectors``.
    """

    eigenvalues: list      # lambda_j (complex), polished by one Newton step
    vectors: np.ndarray    # S, the eigenvectors as columns
    gaps: list             # min_k |lambda_j - lambda_k| (before the polish)
    separated: bool        # the eigenvalues pass :func:`pole_separation`
    norm: float            # ||A|| (Frobenius), the scale of the eigen-solve's round-off


def drift_modes(params) -> DriftModes:
    """The one eigen-solve of :func:`drift_matrix`, and its separation test.

    ``separated`` (read before the polish) picks residues or quadrature in
    :mod:`optocool.spectra` and the eigenbasis or ``expm`` in :mod:`optocool.dynamics`.
    An ||A|| past the float range (g or 1/b overflows, at points that
    :func:`classify` can call stable) raises :class:`~optocool.errors.InvalidParams`.

    A sequence of points is solved as one stack of their drifts, and its
    eigenvectors are dropped. A row whose ||A|| is not finite is left
    unsolved (nan eigenvalues, not separated) where one point would raise.
    """
    single = isinstance(params, NormalizedParams)
    if single:
        drift = drift_matrix(params)
        with np.errstate(over="ignore"):  # finite entries past 1e154 overflow the norm
            norm = float(np.linalg.norm(drift))
        if not math.isfinite(norm):
            raise InvalidParams(f"drift matrix overflows (||A|| = {norm})")
    else:
        points = list(params)
        drift = np.array([drift_matrix(p) for p in points]).reshape(-1, 4, 4)
        with np.errstate(over="ignore"):  # as for one point
            norm = np.sqrt(np.einsum("nij,nij->n", drift, drift))
        unsolved = ~np.isfinite(norm)
        drift[unsolved] = 0.0
    lam, vectors = np.linalg.eig(drift)
    if single:
        lam = lam.tolist()
        gaps, separated = pole_separation(lam)
        return DriftModes(_polish(lam, params, norm), vectors, gaps, separated, norm)
    lam = lam.astype(complex)
    lam[unsolved] = complex(math.nan, math.nan)
    gaps, separated = pole_separation(lam)
    polished = [_polish(row, p, n) for row, p, n in zip(lam.tolist(), points, norm.tolist())]
    return DriftModes(np.array(polished, dtype=complex).reshape(-1, 4), None, gaps, separated,
                      norm)


def _polish(lam: list, params: NormalizedParams, norm: float) -> list:
    """One Newton step on p(s) = M(s) C(s) - K from each eigenvalue of the drift.

    With the bare mechanical and cavity roots factored out, a weakly
    coupled pole keeps its small real part to full relative precision
    (eig alone leaves it an absolute error of order eps ||A||, 1e-12
    relative at Q = 1e4). The step's own round-off, eps K / |p'|, grows
    near exceptional points, so it is taken only where that stays below
    1% of eig's, and only where it is finite (the products overflow at
    extreme detunings; an unsolved row's nan stays nan).
    """
    k, phik = 1.0 / params.b, params.phi / params.b
    half = 0.5 / params.q_factor
    mech = complex(-half, math.sqrt(1.0 - half * half))
    mech_c, cavity, cavity_c = mech.conjugate(), complex(-k, phik), complex(-k, -phik)
    coupling = 2.0 * params.phi * params.phi_nl * k * k
    size, gate = abs(coupling), 0.01 * norm
    polished = []
    for z in lam:
        d0, d1, d2, d3 = z - mech, z - mech_c, z - cavity, z - cavity_c
        lo, hi = d0 * d1, d2 * d3
        slope = lo * (d2 + d3) + hi * (d0 + d1)
        step = (lo * hi - coupling) / slope if size < gate * abs(slope) else 0.0
        polished.append(z - step if abs(step) < math.inf else z)
    return polished


def _cubic(u: float, phi_c: float, drive: float) -> float:
    return u * (1.0 + (phi_c - u) ** 2) - drive


def _cubic_slope(u: float, phi_c: float) -> float:
    # d/du of u*(1 + (phi_c - u)^2)
    return 3.0 * u * u - 4.0 * phi_c * u + 1.0 + phi_c * phi_c


def solve_steady_state(phi_c: float, drive: float) -> SteadyState:
    """Solve the steady-state cubic u*(1 + (phi_c - u)^2) = P.

    u = Delta_nl/kappa parametrizes the intracavity intensity, phi_c =
    Delta_c/kappa the bare detuning and P = 2 G^2 |a_in|^2 / (Omega_m
    kappa^2) the normalized drive. Real roots are found from the
    companion matrix, polished with one Newton step, and classified:

    * ``stable``   -- positive slope dP/du, the spring margin
      1 + phi^2 - 2 phi u at phi = phi_c - u: static stability, the w = 0
      limit of :func:`classify`, which alone detects a growing drift mode;
    * ``marginal`` -- fold points (double roots, dP/du ~ 0), excluded
      from stable selection.

    Roots are returned sorted ascending, with multiplicity, so a double
    root appears twice.
    """
    if not drive >= 0:
        raise InvalidParams(f"drive must be >= 0, got {drive}")

    coeffs = [1.0, -2.0 * phi_c, 1.0 + phi_c * phi_c, -drive]
    scale = max(1.0, abs(phi_c))
    tol = CUBIC_RESIDUAL_TOL * max(1.0, drive, scale * scale * scale)
    if not all(map(math.isfinite, coeffs + [tol])):
        raise InvalidParams(f"cubic terms not finite at phi_c={phi_c}, P={drive}")
    roots = np.roots(coeffs)

    # conjugate symmetry of the companion-matrix roots guarantees one or
    # three survive this filter (a double root splits into a tight pair)
    real = [float(r.real) for r in roots if abs(r.imag) <= 1e-7 * max(1.0, abs(r))]

    slope_scale = 1.0 + phi_c * phi_c
    polished = []
    for u in real:
        du = _cubic_slope(u, phi_c)
        if abs(du) > 1e-6 * slope_scale:
            u = u - _cubic(u, phi_c, drive) / du
        u = max(u, 0.0)
        polished.append(u)
    polished.sort()

    branches = []
    for u in polished:
        if abs(_cubic(u, phi_c, drive)) > tol:
            raise SolverFailure(
                f"cubic residual {abs(_cubic(u, phi_c, drive)):.3e} exceeds "
                f"tolerance at u={u!r} (phi_c={phi_c}, P={drive})"
            )
        phi = phi_c - u
        slope = _spring_margin(phi, u)
        marginal = abs(slope) <= 1e-6 * slope_scale
        stable = (not marginal) and slope > 0.0
        branches.append(Branch(u=u, phi_eff=phi, stable=stable, marginal=marginal))

    return SteadyState(phi_c=phi_c, drive=drive, branches=tuple(branches))


def _select_branch(steady: SteadyState, branch) -> Branch:
    if isinstance(branch, Branch):
        return branch
    if branch == "stable":
        stable = steady.stable_branches()
        if not stable:
            raise NoStableBranch(
                f"no stable branch at phi_c={steady.phi_c}, P={steady.drive}"
            )
        return stable[0]
    return steady.branches[int(branch)]


def normalize(
    p: PhysicalParams,
    steady: SteadyState | None = None,
    branch="stable",
) -> NormalizedParams:
    """Reduce an SI operating point to normalized coordinates.

    The steady-state cubic is solved (unless a precomputed ``steady`` is
    supplied) and one branch selected: ``"stable"`` picks the lowest
    stable branch (the one reached by ramping the drive up from zero),
    an integer indexes the ascending-u branch list, and a
    :class:`Branch` instance is used as-is.

    Raises
    ------
    NoStableBranch
        If ``branch="stable"`` and every branch is unstable.
    """
    if steady is None:
        steady = solve_steady_state(p.delta_c / p.kappa, p.drive_strength)
    sel = _select_branch(steady, branch)
    return NormalizedParams(
        b=p.omega_m / p.kappa,
        phi=sel.phi_eff,
        phi_nl=max(sel.u, 0.0),
        q_factor=p.omega_m / p.gamma,
        n_t_i=thermal_occupancy(p.temperature, p.omega_m),
    )


def denormalize(
    n: NormalizedParams,
    omega_m: float = 2 * math.pi * 1.0e7,
    mass: float = 1.0e-12,
    cavity_length: float = 1.0e-3,
    omega_c: float = 2 * math.pi * constants.c / 1.064e-6,
) -> PhysicalParams:
    """Reconstruct one SI realization of a normalized operating point.

    The normalized coordinates fix only ratios, so the mechanical
    frequency, mass, cavity length and optical frequency act as free
    scale anchors. ``normalize(denormalize(n))`` recovers ``n`` (on the
    matching branch) to machine precision.
    """
    kappa = omega_m / n.b
    gamma = omega_m / n.q_factor
    delta_nl = n.phi_nl * kappa
    delta = n.phi * kappa
    g = (omega_c / cavity_length) * math.sqrt(constants.hbar / (mass * omega_m))
    a_sq = delta_nl * omega_m / (g * g)
    a_in_sq = a_sq * (kappa**2 + delta**2) / (2.0 * kappa)
    if n.n_t_i > 0:
        temperature = constants.hbar * omega_m / (
            constants.k * math.log1p(1.0 / n.n_t_i)
        )
    else:
        temperature = 0.0
    return PhysicalParams(
        omega_m=omega_m,
        kappa=kappa,
        gamma=gamma,
        mass=mass,
        cavity_length=cavity_length,
        omega_c=omega_c,
        delta_c=delta + delta_nl,
        drive_intensity=a_in_sq,
        temperature=temperature,
    )
