"""Exact frequency-domain fluctuation spectra and variance integrals.

Frequencies are measured in units of the mechanical resonance,
omega = Omega/Omega_m, and spectral densities are dimensionless, so

    dq^2 = int dw/(2 pi) S_q(w),    dp^2 = int dw/(2 pi) w^2 S_q(w).

The position spectrum of the radiation-pressure-coupled mirror is

    S_q(w) = [ T(w) |D(w)|^2 + 4 phi_nl (1 + phi^2 + b^2 w^2) ]
             / | D(w) (1 - w^2 - i w/Q) - 2 phi phi_nl |^2

with the cavity response D(w) = (1 - i b w)^2 + phi^2 and a thermal
weight T(w) that is either the quantum Brownian form
2 w coth(x w)/Q, x = hbar Omega_m/(2 kB T) = (1/2) ln(1 + 1/n_t_i),
or its flat Markovian resonance value 2 (2 n_t_i + 1)/Q. Both weights
agree exactly at w = 1, so they differ only through the off-resonant
wings. The flat model is what a white-noise (Lyapunov) time-domain
treatment assumes, which makes it the reference for cross-method
checks; the coth model is the physical default.

S_q is written once, in :func:`_spectrum`: on a Python float for the
adaptive quadratures, which integrate one node at a time without a
numpy call, and on an array for :func:`noise_spectrum`.

Every variance, dq^2 or dp^2 under either weight, is one sum over the
spectrum's poles (:func:`_moment`), cut off at W = omega_max for the
coth dp^2 alone, whose integrand falls off only like 1/|w|. The poles
are the drift eigenvalues, or, where the cavity is decoupled to within
round-off (phi ~ 0), the mechanical pair and 1/b. Adaptive quadrature,
to a fixed relative tolerance of 1e-8 and with the same cutoff, is left
only where the drift's poles nearly coincide and the cavity is not
decoupled, or a pole is not well inside the cutoff.

The module imports numpy alone. scipy.special (the digamma function of
the coth sums) and scipy.integrate (the quadrature fallback) are
imported by the functions that call them, on first use.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidParams, OptocoolError, QuadratureFailure, SingularResponse, Unstable
from .model import DriftModes, NormalizedParams, classify, drift_modes, pole_separation

__all__ = [
    "ThermalNoiseModel",
    "Method",
    "VarianceResult",
    "coth_scale",
    "cavity_response",
    "effective_susceptibility",
    "noise_spectrum",
    "position_variance",
    "integrate_variances",
]

_EPS = sys.float_info.epsilon
#: relative tolerance of every adaptive quadrature of a variance
_QUAD_RTOL = 1e-8
#: where the quadrature of a moment without a cutoff splits into [0, split] and the tail
_OMEGA_SPLIT = 100.0
#: a moment with the cutoff W is a sum over the poles only while every
#: pole |a_j| lies below this fraction of W (see :func:`_bose_tail`)
_POLE_CUTOFF_FRACTION = 0.5
#: 16-point Gauss-Legendre nodes and weights on [0, 1], one panel of the
#: Bose tail rule
_GL_NODES, _GL_WEIGHTS = leggauss(16)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS
#: stated relative error bound of the Bose tail rule (see :func:`_bose_tail`)
_BOSE_TAIL_RTOL = 1e-12
#: the most panels in one block of a stack's Bose tails (16 nodes each, see
#: :func:`_bose_tail`): a block's complex temporaries stay near 256 kB
_BOSE_TAIL_BLOCK = 1024
#: the largest relative change of S_q for which the cavity counts as
#: decoupled (see :func:`_fractions`)
_DECOUPLED_MAX = 1e-9
#: the diagonal of a stack of 4x4 pole-difference tables
_DIAGONAL = np.arange(4)


class ThermalNoiseModel(enum.Enum):
    """Thermal-bath weight entering the position spectrum."""

    QUANTUM_COTH = "quantum_coth"
    MARKOV_FLAT = "markov_flat"


class Method(enum.Enum):
    """Provenance of a variance result."""

    EXACT_SPECTRUM = "exact_spectrum"
    ADIABATIC = "adiabatic"
    LYAPUNOV = "lyapunov"


@dataclass(frozen=True)
class VarianceResult:
    """Steady-state mirror variances with method provenance.

    ``n_t_f = (dq2 + dp2 - 2)/4`` symmetrizes position and momentum and
    reduces to the usual occupancy when the two variances coincide. Where
    dq2 + dp2 overflows while both are finite it is taken as
    dq2/4 + dp2/4 - 1/2, which stays finite.
    """

    dq2: float
    dp2: float
    n_t_f: float
    method: Method
    noise_model: ThermalNoiseModel
    quadrature_error: float

    @classmethod
    def from_variances(cls, dq2, dp2, method, noise_model, quadrature_error=0.0):
        n_t_f = (dq2 + dp2 - 2.0) / 4.0
        if not math.isfinite(n_t_f) and math.isfinite(dq2) and math.isfinite(dp2):
            n_t_f = 0.25 * dq2 + 0.25 * dp2 - 0.5
        return cls(
            dq2=dq2,
            dp2=dp2,
            n_t_f=n_t_f,
            method=method,
            noise_model=noise_model,
            quadrature_error=quadrature_error,
        )


def coth_scale(n_t_i: float) -> float:
    """Coth argument scale x = (1/2) ln(1 + 1/n); +inf for n = 0."""
    if n_t_i < 0:
        raise InvalidParams(f"n_t_i must be >= 0, got {n_t_i}")
    if n_t_i == 0:
        return math.inf
    return 0.5 * math.log1p(1.0 / n_t_i)


def _cavity_response(w, b, phi):
    # d * d, not d ** 2: a Python complex ** raises where it overflows
    d = 1.0 - 1j * b * w
    return d * d + phi * phi


def _first_nonfinite(values, w):
    """The first frequency of ``w`` where ``values`` is not finite, or None."""
    bad = ~np.isfinite(np.atleast_1d(values))
    return float(np.atleast_1d(w)[bad][0]) if bad.any() else None


def cavity_response(omega, b: float, phi: float):
    """Cavity response D(w) = (1 - i b w)^2 + phi^2 (w in Omega_m units).

    Raises
    ------
    SingularResponse
        Where D is not finite: it overflows once |b w| passes about 1e154.
    """
    w = np.asarray(omega, dtype=float)
    with np.errstate(all="ignore"):
        out = _cavity_response(w, b, phi)
    bad = _first_nonfinite(out, w)
    if bad is not None:
        raise SingularResponse(f"cavity response is not finite at omega={bad}")
    return complex(out) if np.ndim(out) == 0 else out


def _flat_weight(params: NormalizedParams) -> float:
    """The flat Markovian weight 2 (2 n_t_i + 1)/Q, the coth weight at w = 1.

    Taken as 2 ((2 n_t_i + 1)/Q), which stays finite where 2 (2 n_t_i + 1)
    overflows; the factor 2 is exact, so it is the same float as
    2 (2 n_t_i + 1)/Q wherever that is finite and normal. ``params`` is
    one point or a stack (of arrays).
    """
    return 2.0 * ((2.0 * params.n_t_i + 1.0) / params.q_factor)


def effective_susceptibility(omega, params: NormalizedParams):
    """Mechanical response dressed by the cavity, in units of 1/(M Omega_m^2).

    Returns 1 / [(1 - w^2 - i w/Q) - 2 phi phi_nl / D(w)]. At phi_nl = 0
    this is the bare susceptibility (1 at w = 0, i Q on resonance). Where
    w^2 and D overflow (|w| above about 1e154) the value is its limit -0.

    Raises
    ------
    SingularResponse
        Where the response diverges, or is not finite.
    """
    w = np.asarray(omega, dtype=float)
    with np.errstate(all="ignore"):
        d = _cavity_response(w, params.b, params.phi)
        val = 1.0 - w * w - 1j * w / params.q_factor - 2.0 * params.phi * params.phi_nl / d
        diverging = np.atleast_1d(np.abs(val) < 1e-13 * (1.0 + w * w))
        if diverging.any():
            bad = float(np.atleast_1d(w)[diverging][0])
            raise SingularResponse(f"effective susceptibility diverges near omega={bad}")
        out = 1.0 / val
    bad = _first_nonfinite(out, w)
    if bad is not None:
        raise SingularResponse(f"effective susceptibility is not finite at omega={bad}")
    return complex(out) if np.ndim(out) == 0 else out


def _spectrum(w, params: NormalizedParams, noise_model: ThermalNoiseModel):
    """S_q(w) and |P(w)|^2, P(w) = D(w) (1 - w^2 - i w/Q) - 2 phi phi_nl: the one formula of S_q.

    ``w`` is a Python float (the quadratures' node, with no numpy call)
    or an array. P's complex products are written out in real
    arithmetic as Python's complex type forms them, so a float and an
    array give the same value but for the ``tanh`` of the coth weight
    (``math.tanh`` on a float, numpy's on an array). On an array, under
    ``np.errstate``, a zero |P|^2 or an overflow gives inf or nan; on a
    float a zero |P|^2 raises ZeroDivisionError, and a (b w)^2 that
    overflows raises OverflowError.
    """
    b, phi, phi_nl, q = params.b, params.phi, params.phi_nl, params.q_factor
    d = _cavity_response(w, b, phi)
    dr, di = d.real, d.imag
    # d (1 - w^2 - i w/Q) - 2 phi phi_nl
    mr, mi = 1.0 - w * w, -(w / q)
    er = dr * mr - di * mi - 2.0 * phi * phi_nl
    ei = dr * mi + di * mr
    denom2 = er * er + ei * ei
    value = (_thermal_weight(w, params, noise_model) * (dr * dr + di * di)
             + 4.0 * phi_nl * (1.0 + phi * phi + (b * w) ** 2)) / denom2
    return value, denom2


def _thermal_weight(w, params: NormalizedParams, noise_model: ThermalNoiseModel):
    """T(w) at a float or an array of frequencies: even in w, with the w = 0 coth limit built in."""
    if noise_model is ThermalNoiseModel.MARKOV_FLAT:
        return _flat_weight(params)
    q = params.q_factor
    x = coth_scale(params.n_t_i)
    if math.isinf(x):  # zero-temperature bath: coth(x w) -> sign(w)
        return 2.0 * abs(w) / q
    xw = x * w
    if isinstance(w, float):  # also where x w underflows (huge n_t_i)
        return 2.0 / (x * q) if xw == 0.0 else 2.0 * w / (q * math.tanh(xw))
    return np.where(xw == 0.0, 2.0 / (x * q), 2.0 * w / (q * np.tanh(xw)))


def noise_spectrum(
    omega,
    params: NormalizedParams,
    noise_model: ThermalNoiseModel = ThermalNoiseModel.QUANTUM_COTH,
):
    """Symmetrized position-fluctuation spectrum S_q at ``omega``.

    A scalar frequency gives a float, an array of them an array. The
    whole array is one evaluation of :func:`_spectrum`, the kernel that
    the quadratures evaluate on one float at a time.

    Raises
    ------
    Unstable
        If :func:`~optocool.model.classify` finds the point unstable.
    SingularResponse
        At the first frequency where the spectrum's denominator vanishes
        or its value overflows.
    """
    classify(params).require_stable()
    w = np.asarray(omega, dtype=float)
    with np.errstate(all="ignore"):  # a zero or overflow shows as a non-finite value
        value, denom2 = _spectrum(w, params, noise_model)
    bad = _first_nonfinite(value, w)
    if bad is None:
        return float(value) if w.ndim == 0 else value
    # a zero denominator makes the value inf or nan; equal frequencies give equal values
    if np.any(denom2[w == bad] == 0.0):
        raise SingularResponse(f"spectrum denominator vanishes at omega={bad}")
    raise SingularResponse(f"spectrum overflows at omega={bad}")


def _float_spectrum(w: float, params: NormalizedParams, noise_model: ThermalNoiseModel) -> float:
    """S_q at one float frequency, the quadratures' integrand: :func:`_spectrum` with typed errors.

    Raises :class:`SingularResponse` where the denominator is zero in
    floating point (every caller has passed
    :func:`~optocool.model.classify`, and a stable point has no zero on
    the real axis, however high its Q) and OverflowError where the value
    is not finite (a nan integrand can crash QUADPACK's breakpoint
    routine), as a float ``**`` that overflows does too.
    """
    try:
        value = _spectrum(w, params, noise_model)[0]
    except ZeroDivisionError:
        raise SingularResponse(f"spectrum denominator vanishes at omega={w}") from None
    if not math.isfinite(value):
        raise OverflowError(f"spectrum overflows at omega={w}")
    return value


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call.

    Only the quadrature fallback integrates, and the import takes about
    half a second. :func:`_checked_quad` looks the name up here, so a
    wrapper set on ``spectra.quad`` sees every call.
    """
    from scipy.integrate import quad

    return quad(*args, **kwargs)


def _checked_quad(f, a, b, rtol, points=None):
    try:
        res = quad(f, a, b, epsabs=0.0, epsrel=rtol, limit=400, points=points,
                   full_output=1)
    except OverflowError as exc:  # the integrand overflows, at extreme parameters
        raise QuadratureFailure(f"integrand overflows: {exc}") from None
    if len(res) > 3:
        raise QuadratureFailure(str(res[3]))
    value, abserr = res[0], res[1]
    if not (math.isfinite(value) and abserr <= 10.0 * rtol * max(abs(value), 1e-12)):
        raise QuadratureFailure(
            f"integration error estimate {abserr:.3e} exceeds tolerance for "
            f"integral value {value:.6e}"
        )
    return value, abserr


def _quad_moment(params, poles, noise_model, power, cutoff, rtol):
    """(1/pi) int_0^W w^power S_q(w) dw and its error, by adaptive quadrature.

    The integrand is even, so this is the variance int dw/(2 pi) with the
    cutoff W = ``cutoff``: the fallback of :func:`_moment` and the tests'
    oracle. The mesh is split at the drift eigenvalues ``poles``: each is
    a peak of half-width |Re lambda| at w = |Im lambda|, often far
    narrower than the plain mesh. With W = inf the integral splits at
    _OMEGA_SPLIT and its tail is integrated to infinity. A finite W is the
    coth dp^2's (its tail grows logarithmically with the cutoff): the
    integral stops there and the one-decade tail bound 2 ln(10)/(pi Q) is
    added to the error.
    """
    upper = _OMEGA_SPLIT if math.isinf(cutoff) else cutoff
    # breakpoints at each peak +- 5^m half-widths resolve its Lorentzian
    # tails: with only m = 0, 1 the tails beyond five half-widths
    # (2/(5 pi) = 13% of the peak's weight) fell between the nodes of a
    # long first panel where the resonance is narrow, and the flat bare
    # oscillator at Q = 1e7 came out 0.874 instead of 1
    seeds = []
    for z in poles:
        peak, halfwidth = abs(z.imag), max(abs(z.real), 1e-12)
        widths = [halfwidth, 5.0 * halfwidth]
        while 5.0 * widths[-1] < peak:
            widths.append(5.0 * widths[-1])
        seeds += [peak] + [peak + side * w for w in widths for side in (-1.0, 1.0)]
    points = sorted({p for p in seeds if 0.0 < p < upper})

    def f(w):
        value = _float_spectrum(w, params, noise_model)
        return w * w * value if power else value

    value, err = _checked_quad(f, 0.0, upper, rtol, points=points)
    if math.isinf(cutoff):
        tail, tail_err = _checked_quad(f, upper, math.inf, rtol)
    else:
        tail, tail_err = 0.0, 2.0 * math.log(10.0) / params.q_factor
    return (value + tail) / math.pi, (err + tail_err) / math.pi


class _Fractions(NamedTuple):
    """Partial fractions of the spectrum in u = w^2.

    |D|^2/|P|^2 = sum_j alpha_j/(u + a_j^2) and 4 phi_nl (1 + phi^2 +
    b^2 u)/|P|^2 = sum_j f_j/(u + a_j^2), with a_j = -lambda_j for the
    drift eigenvalues lambda_j, or the three poles of a decoupled cavity
    (Re a_j > 0; see :func:`_fractions`): S_q has its upper-half-plane
    poles at w = i a_j. ``roundoff[j]`` times the magnitude of pole j's
    term of a residue sum bounds that term's round-off error. A stack's
    table (:func:`_stack_fractions`) holds (n, 4) arrays, one row per point.
    """

    a: list
    alpha: list
    f: list
    roundoff: list


def _fractions(params: NormalizedParams, modes: DriftModes) -> _Fractions | None:
    """The spectrum's pole table, its partial fractions; None where it cannot be used.

    It is the one builder, from one of two pole sets, each of which must
    pass :func:`~optocool.model.pole_separation`. Each coefficient is a
    numerator over prod_{m != j}(a_m^2 - a_j^2). Without a usable set, or
    where a pole, a real part or a squared-pole difference underflows to
    zero, the result is None and the moments are taken by quadrature.

    - The drift's four eigenvalues, where ``modes.separated``
      (|P(w)|^2 = b^4 prod_j (w^2 + lambda_j^2) for the spectrum's
      denominator P). The numerators are prod_c (beta_c^2 - a_j^2) over the
      bare cavity poles beta_c = k -+ i phi k (alpha_j) and
      4 phi_nl k^2 (k^2 (1 + phi^2) - a_j^2) (f_j), k = 1/b. Near a double
      eigenvalue the coefficients grow like 1/separation and cancel: near
      150 exceptional points of the drift, each approached from both
      sides, the flat dq^2 and dp^2 were off 40-digit residue sums by up
      to 4.6e-10 at relative separations in [1e-6, 1e-5), 4.8e-11 in
      [1e-5, 1e-4) and 1.1e-11 above 1e-4.
    - Otherwise the three poles of a cavity decoupled to within round-off
      (phi = 0, whose cavity pair is degenerate): the coupling
      2 phi phi_nl vanishes, the pair drops out and S_q(w) =
      [T(w) + 4 phi_nl k^2/(w^2 + k^2)]/|M(w)|^2, M(w) = 1 - w^2 - i w/Q,
      with the mechanical pair a_1,2 = 1/(2Q) -+ i sqrt(1 - 1/(4Q^2)) and
      a_3 = k. The numerators are k^2 - a_j^2 (alpha_j, zero at a_3) and
      4 phi_nl k^2 (f_j). At phi = 0, |D| >= 1 on the real axis, so
      dropping phi^2 from D and the coupling from the denominator changes
      S_q pointwise by at most eps_phi = 4 phi^2 + 4 |phi| phi_nl /
      min_w |M(w)| (relative, first order), and no moment, whose
      integrand is >= 0, by more. They are used while eps_phi <= _DECOUPLED_MAX.

    ``roundoff[j]`` is a first-order bound, pole by pole and with a margin
    of 10, and each set keeps its own. A drift eigenvalue carries eig's
    absolute error eps ||A||, set against its distance to the real axis
    and to its nearest pole, so a pole without weight adds nothing: over
    450 points (150 random, 300 beside exceptional points) no residue
    sum's error against 40-digit sums passed 0.083 of it. A closed-form
    pole carries a relative error eps, hence 10 eps (1 + |a_j|/gap_j) +
    eps_phi: over 300 random points at phi = 0 (flat bath, Q from 1 to
    1e7) no error against 40-digit sums passed 0.18 of it.

    This is the table of one point, and the only one with the decoupled
    set. Its arithmetic is plain Python complex: numpy's fixed cost per
    call is larger than the work on four poles. A sweep pays that cost
    once for all its points, and :func:`_stack_fractions` builds the
    drift-pole tables of its regular rows as (n, 4) arrays.
    """
    k = 1.0 / params.b
    back = 4.0 * params.phi_nl * k * k
    try:  # a pole, a real part or a squared-pole difference can underflow to zero
        if modes.separated:
            phik = params.phi / params.b
            a = [-z for z in modes.eigenvalues]
            # |D|^2 / b^4 = prod_c (beta_c^2 + w^2) and the b^4-free
            # denominator are taken in the same factored form, so that their
            # common factors cancel to round-off where the cavity decouples.
            cavity = (complex(k, -phik), complex(k, phik))
            cav2 = k * k + phik * phik
            backs = [back * (cav2 - z * z) for z in a]
            bounds = [10.0 * _EPS * modes.norm * (1.0 / abs(z.real) + 1.0 / gap)
                      for z, gap in zip(a, modes.gaps)]
        else:
            half, phi = 0.5 / params.q_factor, params.phi
            # Q > 1, so the mechanical pair is complex and min_w |M(w)| = 2 half |Im a_1|
            root = complex(0.0, math.sqrt(1.0 - half * half))
            eps_phi = 4.0 * phi * phi + 4.0 * abs(phi) * params.phi_nl / (2.0 * half * root.imag)
            a = [half - root, half + root, complex(k)]
            gaps, separated = pole_separation(a)
            if not (separated and eps_phi <= _DECOUPLED_MAX):
                return None
            cavity, backs = (k,), [back] * 3
            bounds = [10.0 * _EPS * (1.0 + abs(z) / gap) + eps_phi for z, gap in zip(a, gaps)]
        den = [math.prod((a[m] - a[j]) * (a[m] + a[j]) for m in range(len(a)) if m != j)
               for j in range(len(a))]
        alpha = [math.prod((c - z) * (c + z) for c in cavity) / d for z, d in zip(a, den)]
        f = [n / d for n, d in zip(backs, den)]
    except ZeroDivisionError:
        return None
    return _Fractions(a, alpha, f, bounds)


class _Stack(NamedTuple):
    """The fields of a sequence of operating points, one (n,) array each."""

    b: np.ndarray
    phi: np.ndarray
    phi_nl: np.ndarray
    q_factor: np.ndarray
    n_t_i: np.ndarray

    @classmethod
    def of(cls, points):
        return cls(*np.array([(p.b, p.phi, p.phi_nl, p.q_factor, p.n_t_i) for p in points],
                             dtype=float).reshape(-1, 5).T)


def _stack_fractions(stack: _Stack, modes: DriftModes) -> tuple[_Fractions, np.ndarray]:
    """:func:`_fractions` of each row of a stack, from its drift poles: (n, 4) arrays, and ok rows.

    The drift's pole set, its numerators and round-off bounds, taken for
    all rows at once from the stacked ``modes``. A row is not ``ok`` where
    its drift poles are not ``separated`` (an unsolved drift, nearly
    coincident poles, or the decoupled cavity at phi ~ 0, whose three-pole
    table the single call builds), or where a real part or a denominator
    is zero.
    """
    with np.errstate(all="ignore"):  # a row that is not ok goes back to the single call
        k = 1.0 / stack.b
        back = (4.0 * stack.phi_nl * k * k)[:, None]
        phik = stack.phi / stack.b
        a = -modes.eigenvalues
        c1, c2 = (k - 1j * phik)[:, None], (k + 1j * phik)[:, None]
        alpha = ((c1 - a) * (c1 + a)) * ((c2 - a) * (c2 + a))
        f = back * ((k * k + phik * phik)[:, None] - a * a)
        bounds = (10.0 * _EPS * modes.norm)[:, None] * (1.0 / np.abs(a.real) + 1.0 / modes.gaps)
        # prod_{m != j} (a_m - a_j)(a_m + a_j)
        diff = (a[:, :, None] - a[:, None, :]) * (a[:, :, None] + a[:, None, :])
        diff[:, _DIAGONAL, _DIAGONAL] = 1.0
        den = diff.prod(axis=1)
        ok = modes.separated & (a.real != 0.0).all(axis=1) & (den != 0.0).all(axis=1)
        return _Fractions(a, alpha / den, f / den, bounds), ok


def _residue_sum(terms, roundoff):
    value = sum(terms).real
    err = sum(r * abs(t) for r, t in zip(roundoff, terms))
    if not (math.isfinite(value) and math.isfinite(err)):
        raise QuadratureFailure(f"residue sum is not finite ({value})")
    return value, err


def _digamma(z):
    """psi(z) for an array with Re z > 0, as psi(z + 3) - 1/z - 1/(z + 1) - 1/(z + 2).

    scipy's complex psi switches to slow series near z = 0 and near its
    positive root 1.46: about 40 us for four poles there against 2 us
    elsewhere, and the coth variances land there at every n_t_i above
    about 1. Over 3000 points with Re z > 0 the recurrence stayed within
    2e-15 of mpmath (absolute, or relative where |psi| > 1), against
    5e-15 for psi(z) itself.
    """
    from scipy.special import psi

    return psi(z + 3.0) - 1.0 / z - 1.0 / (z + 1.0) - 1.0 / (z + 2.0)


def _bose_tail(points, x, omega_max):
    """(2/(pi Q)) int_W^inf 2w/(e^{2xw} - 1) w^2 |chi_eff(w)|^2 dw at each point, and its bound.

    This is the Bose part of the coth weight in w^2 S_q beyond the cutoff
    W = omega_max (|D|^2/|P|^2 = |chi_eff|^2), summed over the poles
    before it is integrated: one real integrand with no pole on the real
    axis. It is taken in t = ln w over [ln W, ln(W + 20/x)], beyond which
    the Bose factor has fallen by e^-40, with 16 Gauss-Legendre nodes on
    each of ceil(width) equal panels (690 of them at n_t_i = 1e300). The
    integrand's singularities nearest to that strip are the Bose poles,
    pi/2 off the real t axis, and the poles of |chi_eff|^2, at least ln 2
    left of the first panel while every |a_j| with thermal weight is below
    W/2 (_POLE_CUTOFF_FRACTION); a pole without it, the decoupled
    cavity's, is not a pole of |chi_eff|^2.
    Against 30-digit mpmath quadratures of the tail, with a strongly
    coupled cavity pole moved from 0.3 W to 2 W (b from 1 to 1000), the
    rule was within 1.1e-15 (relative) up to 0.7 W, 3.6e-13 at 0.9 W and
    off by up to 1e-3 once the pole reached W; _BOSE_TAIL_RTOL = 1e-12 of
    the tail is the stated bound.

    w^2 |chi_eff|^2 is evaluated as 1/|(1 - w^2 - i w/Q - 2 phi phi_nl/D)/w|^2
    with D/w^2 = (1/w - i b)^2 + (phi/w)^2, so that nothing overflows
    where w^2 would: the last node is near 4e301 at n_t_i = 1e300.

    ``points`` are operating points and ``x`` a list of their coth scales.
    Their tails are array expressions over blocks of points, taken in
    the order of their panel counts and cut where a block would pass
    _BOSE_TAIL_BLOCK panels in all (the panels a point does not need are
    left out of its sum), so that a long sweep of long tails stays small.
    Returns one entry per point: its tail, whose bound is _BOSE_TAIL_RTOL
    of it, or the :class:`~optocool.errors.QuadratureFailure` of a tail
    that cannot be taken.
    """
    out, rows = [0.0] * len(points), []
    for i, (p, xi) in enumerate(zip(points, x)):
        if xi * omega_max > 400.0:  # the Bose factor is below e^-800 on the whole tail
            continue
        span = math.log1p(20.0 / (xi * omega_max))
        if math.isinf(span):  # 1/x overflows, at n_t_i above about 1e307
            out[i] = QuadratureFailure(f"Bose tail beyond the cutoff overflows (n_t_i={p.n_t_i})")
        else:  # span >= log1p(0.05) here
            rows.append((math.ceil(span), span, i, (p.b, p.phi, p.phi_nl, p.q_factor, xi)))
    rows.sort()
    start = 0
    while start < len(rows):
        stop = start + 1
        while stop < len(rows) and (stop + 1 - start) * rows[stop][0] <= _BOSE_TAIL_BLOCK:
            stop += 1
        panels, spans, index, live = zip(*rows[start:stop])
        start = stop
        h = [span / n for span, n in zip(spans, panels)]
        if len(live) == 1:  # plain floats broadcast faster than (1, 1, 1) arrays
            (b, phi, phi_nl, q, xb), grid = live[0], h[0]
        else:
            b, phi, phi_nl, q, xb = np.array(live).T[:, :, None, None]
            grid = np.array(h)[:, None, None]
        nodes = np.arange(panels[-1])[:, None] + _GL_NODES
        with np.errstate(all="ignore"):  # an overflow fails the finiteness test below
            w = np.exp(math.log(omega_max) + grid * nodes)
            u = 1.0 / w
            r = 1.0 / np.abs(u - w - 1j / q - 2.0 * phi * phi_nl * u**3
                             / ((u - 1j * b) ** 2 + (phi * u) ** 2))
            s = 2.0 * xb * w
            # the Bose factor times w^3 |chi_eff|^2, the integrand in dt = dw/w
            values = 2.0 * w * np.exp(-s) / -np.expm1(-s) * (w * r) * r
            per_panel = values @ _GL_WEIGHTS
            if panels[0] < panels[-1]:
                per_panel[np.arange(panels[-1]) >= np.array(panels)[:, None]] = 0.0
            sums = per_panel.reshape(len(live), -1).sum(axis=1).tolist()
        for i, row, hi, total in zip(index, live, h, sums):
            tail = 2.0 / (math.pi * row[3]) * (hi * total)
            # not finite: a node past the largest float, n_t_i near 1e307
            out[i] = tail if math.isfinite(tail) else QuadratureFailure(
                f"Bose tail beyond the cutoff is not finite ({tail})")
    return out


def _bose_bracket(a, x):
    """log(x/pi) - 1/(2z) - psi(z), z = x a/pi, at each pole a_j (-log a_j at n_t_i = 0).

    The part of the coth weight's K(a_j) (see :func:`_moment`) that does not
    depend on the cutoff, which both coth moments share. ``a`` holds one
    row of poles per point and ``x`` is the list of their coth scales.
    """
    if len(x) == 1:  # plain floats broadcast faster than (1, 1) arrays
        scale, logs = x[0], math.log(x[0] / math.pi)
    else:
        scale = np.array(x)[:, None]
        logs = np.array([math.log(v / math.pi) for v in x])[:, None]
    with np.errstate(all="ignore"):  # an overflow fails the finiteness test
        z = (scale / math.pi) * a
        out = logs - 0.5 / z - _digamma(z)
        if math.inf in x:
            cold = np.isinf(x)
            out[cold] = -np.log(a[cold])
        return out


def _moment(params, noise_model, modes, fr, bracket, power, omega_max):
    """(1/pi) int_0^W w^power S_q(w) dw and its error: dq^2 (power 0) or dp^2 (power 2).

    W is ``omega_max`` for the coth dp^2, whose integrand falls off only
    like 2/(Q |w|), so that it is cut off by definition; the other three
    moments converge and have W = inf. With the partial fractions ``fr``
    (see :class:`_Fractions`), S_q = sum_j [T(w) alpha_j + f_j]/(w^2 + a_j^2),
    and sum_j alpha_j = sum_j f_j = 0 lets w^2/(w^2 + a^2) be replaced by
    -a^2/(w^2 + a^2). Every moment is then one sum over the poles,

        sum_j m_j [alpha_j K(a_j) + f_j R(a_j)],

    m_j = 1 for dq^2 and -a_j^2 for dp^2, R(a) = (1/pi) int_0^W dw/(w^2 + a^2)
    = arctan(W/a)/(pi a) (1/(2a) at W = inf) and K(a) the same integral
    weighted by T(w). Under the flat weight K = T R. Under the coth weight,
    with w coth(x w) = w + 2w/(e^{2xw} - 1) (principal branches, Re a_j > 0),

        K(a) = (2/(pi Q)) [(log(a + iW) + log(a - iW))/2 - log a
                           + log z - 1/(2z) - psi(z)],   z = x a/pi:

    the zero-point part is elementary, and the Bose part on [0, inf) is
    Binet's integral for psi (DLMF 5.9.13), less its part beyond a finite W
    (:func:`_bose_tail`). At W = inf the log W of the first term is the
    same for every pole, which sum_j alpha_j cancels; at n_t_i = 0 there
    is no Bose part; and log z - log a = log(x/pi). Both coth moments take
    the part of K after the first term from ``bracket``
    (:func:`_bose_bracket`).

    Where ``fr`` is None (nearly coincident poles of a coupled cavity, see
    :func:`_fractions`) or a pole with thermal weight (alpha_j != 0) has
    |a_j| >= W/2 (the tail rule loses its accuracy as such a pole nears
    the cutoff; a pole without it, the decoupled cavity's, enters only
    through the exact R) the moment is instead the
    adaptive quadrature to 1e-8 (relative) with the same W
    (:func:`_quad_moment`). The error is
    the round-off bound of the sum, plus 1e-12 of the Bose tail, or the
    quadrature's estimate. Against 40-digit mpmath quadratures at
    b = phi = 10, phi_nl = 0.1 and 0.01, with n_t_i from 0 to 1e306, the
    coth dp^2 was within 5e-15, also at n_t_i = 1e300 and 1e306, where the
    quadrature's integrand overflows.
    """
    coth = noise_model is ThermalNoiseModel.QUANTUM_COTH
    cutoff = omega_max if coth and power == 2 else math.inf
    if fr is None or max((abs(aj) for aj, al in zip(fr.a, fr.alpha) if al),
                         default=0.0) >= _POLE_CUTOFF_FRACTION * cutoff:
        return _quad_moment(params, modes.eigenvalues, noise_model, power, cutoff, _QUAD_RTOL)
    if not coth:  # m_j R(a_j) is 1/(2 a_j) or -a_j/2
        weight = _flat_weight(params)
        return _residue_sum([(weight * al + f) * (0.5 / aj if power == 0 else -0.5 * aj)
                             for aj, al, f in zip(fr.a, fr.alpha, fr.f)], fr.roundoff)
    if math.isinf(cutoff):
        r, k = [0.5 / aj for aj in fr.a], bracket
    else:
        a = np.array(fr.a)
        with np.errstate(all="ignore"):  # an overflow fails the finiteness test
            r = (np.arctan(cutoff / a) / (math.pi * a)).tolist()
            k = 0.5 * (np.log(a + 1j * cutoff) + np.log(a - 1j * cutoff)) + bracket
    scale = 2.0 / (math.pi * params.q_factor)
    # a pole without thermal weight (the decoupled cavity's) skips K, which can overflow there
    terms = [(scale * al * kj if al else 0.0) + f * rj
             for al, f, kj, rj in zip(fr.alpha, fr.f, k.tolist(), r)]
    if power == 2:
        terms = [-aj * aj * t for aj, t in zip(fr.a, terms)]
    value, err = _residue_sum(terms, fr.roundoff)
    x = coth_scale(params.n_t_i)
    if math.isinf(cutoff) or math.isinf(x):
        return value, err
    tail = _bose_tail([params], [x], cutoff)[0]
    if isinstance(tail, QuadratureFailure):
        raise tail
    return value - tail, err + _BOSE_TAIL_RTOL * tail


def _stack_moment(points, stack, noise_model, fr, bracket, x, power, omega_max):
    """:func:`_moment` of each row of a stack from its table ``fr``: arrays value, err, ok.

    The same sums over the poles, as (n, 4) array expressions. A row is
    not ``ok`` where a pole has |a_j| >= W/2 (the single call then applies
    its own thermal-weight rule and takes the quadrature where it must),
    or where its sum or Bose tail is not finite.
    """
    coth = noise_model is ThermalNoiseModel.QUANTUM_COTH
    cutoff = omega_max if coth and power == 2 else math.inf
    a = fr.a
    with np.errstate(all="ignore"):  # a row that is not ok goes back to the single call
        ok = np.abs(a).max(axis=1) < _POLE_CUTOFF_FRACTION * cutoff
        if not coth:
            weight = _flat_weight(stack)[:, None]
            terms = (weight * fr.alpha + fr.f) * (0.5 / a if power == 0 else -0.5 * a)
        else:
            if math.isinf(cutoff):
                r, k = 0.5 / a, bracket
            else:
                r = np.arctan(cutoff / a) / (math.pi * a)
                k = 0.5 * (np.log(a + 1j * cutoff) + np.log(a - 1j * cutoff)) + bracket
            scale = (2.0 / (math.pi * stack.q_factor))[:, None]
            terms = scale * fr.alpha * k + fr.f * r
            if power == 2:
                terms = -a * a * terms
        value = terms.sum(axis=1).real
        err = (fr.roundoff * np.abs(terms)).sum(axis=1)
        ok &= np.isfinite(value) & np.isfinite(err)
    if coth and power == 2:
        tails = _bose_tail(points, x, cutoff)
        failed = [isinstance(tail, QuadratureFailure) for tail in tails]
        tail = np.array([0.0 if f else t for f, t in zip(failed, tails)])
        ok &= np.logical_not(failed)
        value, err = value - tail, err + _BOSE_TAIL_RTOL * tail
    return value, err, ok


def _moments(params, noise_model, omega_max, powers):
    """The moments ``powers`` of one stable point (see :func:`_moment`), as (value, err) pairs.

    The single call: one eigen-solve, the pole table (either pole set of
    :func:`_fractions`) and the Bose bracket, shared by the moments. The
    caller has passed the point through :func:`~optocool.model.classify`.
    """
    modes = drift_modes(params)
    fr = _fractions(params, modes)
    bracket = None
    if noise_model is ThermalNoiseModel.QUANTUM_COTH and fr is not None:
        bracket = _bose_bracket(np.array([fr.a]), [coth_scale(params.n_t_i)])[0]
    return [_moment(params, noise_model, modes, fr, bracket, power, omega_max)
            for power in powers]


#: the fewest stable points that take the stacked route. A stack has a
#: fixed cost in numpy calls: one point costs about twice as much stacked
#: as alone, and from three points on a stack costs less (coth bath) or
#: about the same (flat bath)
_STACK_MIN = 3


def _stack_moments(points, noise_model, omega_max, powers):
    """The moments ``powers`` of each point (see :func:`_moment`), its stack where it has one.

    Every point is classified first, once. With at least _STACK_MIN stable
    points, their regular rows are one stack: one stacked eigen-solve,
    then the pole tables, the Bose bracket, the sums and the Bose tails as
    array expressions. Each entry is a list of (value, err), one per
    power; the :class:`~optocool.errors.Unstable` of an unstable point; or
    None at a stable point that the single call (:func:`_moments`) takes:
    every one with fewer than _STACK_MIN stable points, and otherwise each
    row that is not regular (drift poles not separated, as at phi ~ 0; a
    pole at or beyond W/2; a sum or Bose tail that is not finite).
    """
    out, live = [], []
    for i, p in enumerate(points):
        try:
            classify(p).require_stable()
        except Unstable as exc:
            out.append(exc)
        else:
            out.append(None)
            live.append(i)
    if len(live) < _STACK_MIN:
        return out
    rows = [points[i] for i in live]
    stack = _Stack.of(rows)
    fr, ok = _stack_fractions(stack, drift_modes(rows))
    x = [coth_scale(p.n_t_i) for p in rows]
    bracket = _bose_bracket(fr.a, x) if noise_model is ThermalNoiseModel.QUANTUM_COTH else None
    moments = []
    for power in powers:
        value, err, fine = _stack_moment(rows, stack, noise_model, fr, bracket, x, power,
                                         omega_max)
        ok &= fine
        moments.append((value.tolist(), err.tolist()))
    for j, i in enumerate(live):
        if ok[j]:
            out[i] = [(value[j], err[j]) for value, err in moments]
    return out


def _per_point(params, noise_model, omega_max, powers, build):
    """``build`` of the moments ``powers`` of one point, or of each point of a sequence.

    The one dispatch of both public integrals. A sequence gives one entry
    per point: ``build`` of its moments, or the
    :class:`~optocool.errors.OptocoolError` that the point alone raises.
    One point gives its entry, or raises that error.
    """
    single = isinstance(params, NormalizedParams)
    points = [params] if single else list(params)
    out = []
    for p, row in zip(points, _stack_moments(points, noise_model, omega_max, powers)):
        try:
            if row is None:
                row = _moments(p, noise_model, omega_max, powers)
            out.append(row if isinstance(row, OptocoolError) else build(row))
        except OptocoolError as exc:
            out.append(exc)
    if not single:
        return out
    if isinstance(out[0], OptocoolError):
        raise out[0]
    return out[0]


def _result(noise_model, q, p) -> VarianceResult:
    """The VarianceResult of the (value, err) pairs of dq^2 and dp^2, or
    QuadratureFailure where the sum of their error bounds overflows."""
    if not math.isfinite(q[1] + p[1]):
        raise QuadratureFailure(f"error bound {q[1]:.3e} + {p[1]:.3e} is not finite")
    return VarianceResult.from_variances(q[0], p[0], Method.EXACT_SPECTRUM, noise_model,
                                         q[1] + p[1])


def position_variance(
    params,
    noise_model: ThermalNoiseModel = ThermalNoiseModel.QUANTUM_COTH,
):
    """dq^2 = int dw/(2 pi) S_q(w) and a bound on its error, without dp^2.

    The same moment as :func:`integrate_variances` computes (see
    :func:`_moment`): a sum over the spectrum's poles, or adaptive
    quadrature where two drift poles nearly coincide and the cavity is coupled.
    A sequence of points is dispatched as by :func:`integrate_variances`:
    one (dq2, err) pair or error per point.

    Raises
    ------
    Unstable
        If :func:`~optocool.model.classify` finds the point unstable.
    QuadratureFailure
        If the quadrature misses its tolerance or the sum is not finite.
    """
    return _per_point(params, noise_model, math.inf, (0,), lambda m: m[0])


def integrate_variances(
    params,
    noise_model: ThermalNoiseModel = ThermalNoiseModel.QUANTUM_COTH,
    omega_max: float = 100.0,
):
    """Mirror variances of the exact spectrum.

    Each variance is a sum over the spectrum's poles, or adaptive
    quadrature to 1e-8 (relative) where two drift poles nearly coincide
    and the cavity is coupled (see :func:`_moment`). Under the coth
    weight w^2 S_q falls off only like 2/(Q |w|), so dp^2 is cut off at
    ``omega_max`` by definition; the cutoff changes nothing else.
    ``quadrature_error`` sums the errors of dq^2 and dp^2: a round-off
    bound for a sum (plus 1e-12 of the Bose tail for the coth dp^2), a
    quadrature's error estimate (plus the one-decade tail bound
    2 ln(10)/(pi Q) for the coth dp^2).

    ``params`` is one point, or a sequence of points (a sweep), which
    returns a list with one entry per point: its VarianceResult, or the
    :class:`~optocool.errors.OptocoolError` that the point alone would
    raise. Each point is classified once. Where three or more of them are
    stable (_STACK_MIN), their regular rows are one stack: one
    eigen-solve of the stack of their drifts, and the pole tables, sums
    and Bose tails of all of them as array expressions. Every other
    stable point is a single call, which owns the phi ~ 0 three-pole
    table, the quadrature and the typed errors: a point with drift poles
    that are not separated, a pole at or beyond W/2, or a sum or tail
    that is not finite, and every point where fewer than three are stable
    (one or two points cost less as single calls).

    Raises
    ------
    InvalidParams
        If ``omega_max`` is not finite and > 2.
    Unstable
        If :func:`~optocool.model.classify` finds the point unstable.
    QuadratureFailure
        If a quadrature misses its tolerance or a sum is not finite.
    """
    if not 2.0 < omega_max < math.inf:
        raise InvalidParams(f"omega_max must be finite and > 2, got {omega_max}")
    return _per_point(params, noise_model, omega_max, (0, 2), lambda m: _result(noise_model, *m))
