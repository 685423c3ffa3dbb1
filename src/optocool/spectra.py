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
"""

from __future__ import annotations

import enum
import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.special import psi

from .errors import InvalidParams, QuadratureFailure, SingularResponse
from .model import NormalizedParams, classify, drift_matrix

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
    "MIN_RTOL",
    "POLE_SEPARATION_MIN",
]

_EPS = sys.float_info.epsilon
#: smallest relative tolerance the adaptive quadrature accepts
MIN_RTOL = 50.0 * _EPS
#: relative separation of two drift eigenvalues at or below which the
#: variance integrals are taken by adaptive quadrature rather than
#: residues (the measurement behind it is in :func:`_fractions`)
POLE_SEPARATION_MIN = 1e-4
#: where the quadrature of dq^2 splits into [0, split] and the tail
_OMEGA_SPLIT = 100.0


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
    reduces to the usual occupancy when the two variances coincide.
    """

    dq2: float
    dp2: float
    n_t_f: float
    method: Method
    noise_model: ThermalNoiseModel
    quadrature_error: float

    @classmethod
    def from_variances(cls, dq2, dp2, method, noise_model, quadrature_error=0.0):
        return cls(
            dq2=dq2,
            dp2=dp2,
            n_t_f=(dq2 + dp2 - 2.0) / 4.0,
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


def cavity_response(omega, b: float, phi: float):
    """Cavity response D(w) = (1 - i b w)^2 + phi^2 (w in Omega_m units)."""
    out = (1.0 - 1j * b * np.asarray(omega, dtype=float)) ** 2 + phi * phi
    return complex(out) if np.ndim(out) == 0 else out


def _flat_weight(params: NormalizedParams) -> float:
    """The flat Markovian weight 2 (2 n_t_i + 1)/Q, the coth weight at w = 1."""
    return 2.0 * (2.0 * params.n_t_i + 1.0) / params.q_factor


def _thermal_weight(omega, params: NormalizedParams, noise_model: ThermalNoiseModel):
    """Thermal weight T(w); even in w, with the w = 0 coth limit built in."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    q = params.q_factor
    if noise_model is ThermalNoiseModel.MARKOV_FLAT:
        return np.full(w.shape, _flat_weight(params))
    x = coth_scale(params.n_t_i)
    if math.isinf(x):  # zero-temperature bath: coth(x w) -> sign(w)
        return 2.0 * np.abs(w) / q
    out = np.empty_like(w)
    nz = x * w != 0.0  # x w can underflow where n_t_i is huge
    out[~nz] = 2.0 / (x * q)
    out[nz] = 2.0 * w[nz] / (q * np.tanh(x * w[nz]))
    return out


def _response_parts(omega, params: NormalizedParams):
    w = np.asarray(omega, dtype=float)
    d = cavity_response(w, params.b, params.phi)
    chi_inv = 1.0 - w * w - 1j * w / params.q_factor
    denom = d * chi_inv - 2.0 * params.phi * params.phi_nl
    return d, denom


def effective_susceptibility(omega, params: NormalizedParams):
    """Mechanical response dressed by the cavity, in units of 1/(M Omega_m^2).

    Returns 1 / [(1 - w^2 - i w/Q) - 2 phi phi_nl / D(w)]. At phi_nl = 0
    this is the bare susceptibility (1 at w = 0, i Q on resonance).
    """
    d, denom = _response_parts(omega, params)
    val = denom / d
    if np.any(np.abs(val) < 1e-13 * (1.0 + np.asarray(omega, dtype=float) ** 2)):
        raise SingularResponse(
            f"effective susceptibility diverges near omega={omega!r}"
        )
    out = 1.0 / val
    return complex(out) if np.ndim(out) == 0 else out


def _spectrum_values(omega, params: NormalizedParams, noise_model: ThermalNoiseModel):
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    with np.errstate(all="ignore"):  # an overflow fails the finiteness test below
        d, denom = _response_parts(w, params)
        dabs2 = (d * d.conjugate()).real
        num = _thermal_weight(w, params, noise_model) * dabs2 + 4.0 * params.phi_nl * (
            1.0 + params.phi * params.phi + (params.b * w) ** 2
        )
        denom2 = (denom * denom.conjugate()).real
        vanishing = denom2 < 1e-26 * (1.0 + w * w) ** 2
        out = num / denom2
    if np.any(vanishing):
        bad = float(w[vanishing][0])
        raise SingularResponse(f"spectrum denominator vanishes near omega={bad}")
    if not np.all(np.isfinite(out)):
        bad = float(w[~np.isfinite(out)][0])
        raise SingularResponse(f"spectrum overflows at omega={bad}")
    return out


def _scalar_spectrum_fn(params: NormalizedParams, noise_model: ThermalNoiseModel):
    """Plain-Python S_q(w) closure, cheap enough for adaptive quadrature."""
    b, phi, phi_nl, q = params.b, params.phi, params.phi_nl, params.q_factor
    phi2 = phi * phi
    two_cross = 2.0 * phi * phi_nl
    four_nl = 4.0 * phi_nl
    if noise_model is ThermalNoiseModel.MARKOV_FLAT:
        flat = _flat_weight(params)

        def thermal(w):
            return flat

    else:
        x = coth_scale(params.n_t_i)
        if math.isinf(x):

            def thermal(w):
                return 2.0 * abs(w) / q

        else:

            def thermal(w):
                if x * w == 0.0:  # also where x w underflows (huge n_t_i)
                    return 2.0 / (x * q)
                return 2.0 * w / (q * math.tanh(x * w))

    def s_q(w):
        d = 1.0 - 1j * b * w
        d = d * d + phi2
        denom = d * (1.0 - w * w - 1j * w / q) - two_cross
        dabs2 = d.real * d.real + d.imag * d.imag
        denom2 = denom.real * denom.real + denom.imag * denom.imag
        if denom2 < 1e-26 * (1.0 + w * w) ** 2:
            raise SingularResponse(f"spectrum denominator vanishes at omega={w}")
        value = (thermal(w) * dabs2 + four_nl * (1.0 + phi2 + (b * w) ** 2)) / denom2
        if value != value:  # a nan integrand can crash QUADPACK's breakpoint routine
            raise QuadratureFailure(f"spectrum overflows at omega={w}")
        return value

    return s_q


def noise_spectrum(
    omega,
    params: NormalizedParams,
    noise_model: ThermalNoiseModel = ThermalNoiseModel.QUANTUM_COTH,
):
    """Symmetrized position-fluctuation spectrum S_q at ``omega``.

    A scalar frequency gives a float, an array of them an array.

    Raises
    ------
    Unstable
        If :func:`~optocool.model.classify` finds the point unstable.
    SingularResponse
        If the spectrum's denominator vanishes or its value overflows.
    """
    classify(params).require_stable()
    values = _spectrum_values(omega, params, noise_model)
    return float(values[0]) if np.ndim(omega) == 0 else values


def _checked_quad(f, a, b, rtol, points=None):
    try:
        res = quad(f, a, b, epsabs=0.0, epsrel=rtol, limit=400, points=points,
                   full_output=1)
    except OverflowError as exc:  # float ** in the integrand, at extreme parameters
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


def _quad_moment(params, report, noise_model, power, omega_max, rtol):
    """(1/pi) int_0^inf w^power S_q(w) dw and its error, by adaptive quadrature.

    The integrand is even, so this is the variance int dw/(2 pi). The
    mesh is pre-split around the (possibly shifted and broadened)
    mechanical resonance and at the cavity feature near w = phi/b, whose
    widths can be orders of magnitude below the plain mesh scale. Beyond
    omega_max the tail is integrated to infinity, except for dp^2 (power
    2) under the quantum coth weight, whose tail grows logarithmically
    with the cutoff: there the one-decade tail bound 2 ln(10)/(pi Q) is
    added to the error instead.
    """
    # a stable point can still have Gamma_eff < 0 (the closed form is a
    # resonance approximation); its magnitude still sizes the peak
    w2 = report.omega_eff2
    peak = math.sqrt(w2) if w2 > 0 else 1.0
    halfwidth = max(abs(report.gamma_eff_ratio) / (2.0 * params.q_factor), 1e-12)
    cavity = abs(params.phi) / params.b
    # breakpoints at the peak +- 5^m half-widths resolve the resonance's
    # Lorentzian tails: with only m = 0, 1 the tails beyond five
    # half-widths (2/(5 pi) = 13% of the peak's weight) fell between the
    # nodes of a long first panel where the resonance is narrow, and the
    # flat bare oscillator at Q = 1e7 came out 0.874 instead of 1
    widths = [halfwidth, 5.0 * halfwidth]
    while 5.0 * widths[-1] < peak:
        widths.append(5.0 * widths[-1])
    seeds = [peak, 1.0, cavity - 1.0 / params.b, cavity, cavity + 1.0 / params.b]
    seeds += [peak + side * w for w in widths for side in (-1.0, 1.0)]
    points = sorted({p for p in seeds if 0.0 < p < omega_max})

    s_q = _scalar_spectrum_fn(params, noise_model)
    if power == 0:
        f = s_q
    else:
        def f(w):
            return w * w * s_q(w)

    value, err = _checked_quad(f, 0.0, omega_max, rtol, points=points)
    if power == 2 and noise_model is ThermalNoiseModel.QUANTUM_COTH:
        tail, tail_err = 0.0, 2.0 * math.log(10.0) / params.q_factor
    else:
        tail, tail_err = _checked_quad(f, omega_max, math.inf, rtol)
    return (value + tail) / math.pi, (err + tail_err) / math.pi


class _Fractions(NamedTuple):
    """Partial fractions of the spectrum in u = w^2.

    |D|^2/|P|^2 = sum_j alpha_j/(u + a_j^2) and 4 phi_nl (1 + phi^2 +
    b^2 u)/|P|^2 = sum_j f_j/(u + a_j^2), with a_j = -lambda_j for the
    drift eigenvalues lambda_j (Re a_j > 0): S_q has its upper-half-plane
    poles at w = i a_j. ``roundoff`` times the summed magnitude of the
    terms of a residue sum bounds its round-off error.
    """

    a: list
    alpha: list
    f: list
    roundoff: float


def _fractions(params: NormalizedParams) -> _Fractions | None:
    """The spectrum's partial fractions, or None when two poles nearly coincide.

    None also where they cannot be formed in floating point (a pole or a
    difference of squared poles that underflows to zero).

    |P(w)|^2 = b^4 prod_j (w^2 + lambda_j^2), where P is the spectrum's
    denominator and lambda_j the drift eigenvalues, so each coefficient
    is a numerator over b^4 prod_{k != j}(a_k^2 - a_j^2). Near a double
    eigenvalue the coefficients grow like 1/separation and cancel. Near
    exceptional points of the drift (150 of them, each approached from
    both sides), the error of the flat dq^2 and dp^2 against 40-digit
    residue sums reached 4.6e-10 at relative separations of the closest
    pair in [1e-6, 1e-5), 4.8e-11 in [1e-5, 1e-4) and 1.1e-11 above
    1e-4. Below POLE_SEPARATION_MIN = 1e-4 the adaptive quadrature is
    used instead. Where the cavity pair is degenerate (phi = 0) the
    computed separation is either at round-off level or at least
    sqrt(eps) = 1.1e-8.

    The round-off bound is first order: the eigenvalues carry an error
    of order eps ||A||, set against the smallest distance of a pole to
    the real axis and to another pole, with a margin of 10. Over 450
    stable points, random and near exceptional points, the error against
    40-digit sums stayed below 0.24 of it.

    Four poles make numpy's per-call cost dominate, so everything after
    the eigenvalues is plain complex arithmetic.
    """
    drift = drift_matrix(params)
    lam = np.linalg.eigvals(drift).tolist()
    pairs = list(itertools.combinations(lam, 2))
    if any(abs(x - y) <= POLE_SEPARATION_MIN * max(abs(x), abs(y)) for x, y in pairs):
        return None
    norm = float(np.linalg.norm(drift))
    b, phi, phi_nl, q = params.b, params.phi, params.phi_nl, params.q_factor
    k, phik = 1.0 / b, phi / b

    # One Newton step on p(s) = M(s) C(s) - K with the bare mechanical and
    # cavity roots factored out, so that a weakly coupled pole keeps its
    # small real part to full relative precision (eig alone leaves it an
    # absolute error of order eps ||A||, 1e-12 relative at Q = 1e4). The
    # step's own round-off, eps K / |p'|, grows near exceptional points,
    # so it is taken only where that stays below 1% of eig's.
    half = 0.5 / q
    mech = complex(-half, math.sqrt(1.0 - half * half))
    bare = (mech, mech.conjugate(), complex(-k, phik), complex(-k, -phik))
    coupling = 2.0 * phi * phi_nl * k * k
    a = []
    for z in lam:
        d0, d1, d2, d3 = (z - r for r in bare)
        lo, hi = d0 * d1, d2 * d3
        slope = lo * (d2 + d3) + hi * (d0 + d1)
        if abs(coupling) < 0.01 * norm * abs(slope):
            z -= (lo * hi - coupling) / slope
        a.append(-z)

    # |D|^2 / b^4 = prod_c (beta_c^2 + w^2) over the bare cavity poles
    # beta_c = k -+ i phi k. It and the b^4-free denominator are taken in
    # the same factored form, so that their common factors cancel to
    # round-off where the cavity decouples.
    beta = (-bare[2], -bare[3])
    den = [math.prod((a[m] - a[j]) * (a[m] + a[j]) for m in range(4) if m != j)
           for j in range(4)]
    cav2 = k * k + phik * phik
    try:  # a squared-pole difference or a real part can underflow to zero
        alpha = [math.prod((c - z) * (c + z) for c in beta) / d for z, d in zip(a, den)]
        f = [4.0 * phi_nl * k * k * (cav2 - z * z) / d for z, d in zip(a, den)]
        roundoff = 10.0 * _EPS * norm * (
            1.0 / min(abs(z.real) for z in lam) + 1.0 / min(abs(x - y) for x, y in pairs)
        )
    except ZeroDivisionError:
        return None
    return _Fractions(a, alpha, f, roundoff)


def _residue_sum(terms, roundoff):
    value = sum(terms).real
    err = roundoff * sum(map(abs, terms))
    if not (math.isfinite(value) and math.isfinite(err)):
        raise QuadratureFailure(f"residue sum is not finite ({value})")
    return value, err


def _position_variance(params, noise_model, report, fr, rtol):
    """dq^2 and its error from the partial fractions ``fr`` (None: quadrature)."""
    if fr is None:
        return _quad_moment(params, report, noise_model, 0, _OMEGA_SPLIT, rtol)
    if noise_model is ThermalNoiseModel.MARKOV_FLAT:
        weight = _flat_weight(params)
        terms = [(weight * al + f) / (2.0 * a) for a, al, f in zip(fr.a, fr.alpha, fr.f)]
    else:
        x = coth_scale(params.n_t_i)
        poles = np.array(fr.a)
        with np.errstate(all="ignore"):  # an overflow fails the finiteness test
            if math.isinf(x):
                thermal = -2.0 * np.log(poles)
            else:
                thermal = math.pi / (x * poles) - 2.0 * psi(1.0 + (x / math.pi) * poles)
        scale = 1.0 / (math.pi * params.q_factor)
        terms = [scale * al * th + f / (2.0 * a)
                 for a, al, f, th in zip(fr.a, fr.alpha, fr.f, thermal.tolist())]
    return _residue_sum(terms, fr.roundoff)


def _residues_or_quad(params: NormalizedParams, rtol: float):
    """(classify report, partial fractions or None) of a stable point."""
    if not rtol > MIN_RTOL:
        raise InvalidParams(f"rtol must be > {MIN_RTOL:.3g}, got {rtol}")
    report = classify(params).require_stable()
    return report, _fractions(params)


def position_variance(
    params: NormalizedParams,
    noise_model: ThermalNoiseModel = ThermalNoiseModel.QUANTUM_COTH,
    rtol: float = 1e-8,
) -> tuple[float, float]:
    """dq^2 = int dw/(2 pi) S_q(w) and a bound on its error, without dp^2.

    The integral closes in the upper half plane, so it is a sum of the
    residues at w = i a_j (a_j = -lambda_j, lambda_j the drift
    eigenvalues). With the partial fractions of :class:`_Fractions`,
    int dw/(w^2 + a^2) = pi/a gives the flat weight T and the
    radiation-pressure term: sum_j (T alpha_j + f_j)/(2 a_j). Under the
    coth weight, w coth(x w) = 1/x + sum_k 2 w^2/(x (w^2 + nu_k^2)),
    nu_k = pi k/x, and the Matsubara sum closes (sum_j alpha_j = 0) into

        int w coth(x w) sum_j alpha_j/(w^2 + a_j^2) dw
            = sum_j alpha_j [pi/(x a_j) - 2 psi(1 + x a_j/pi)];

    at n_t_i = 0 (x -> inf) the bracket is -2 log a_j. Where two poles
    nearly coincide (see :func:`_fractions`) the integral is taken by
    adaptive quadrature to ``rtol`` instead; the error is then its
    estimate, otherwise a round-off bound.

    Raises
    ------
    Unstable
        If :func:`~optocool.model.classify` finds the point unstable.
    QuadratureFailure
        If the quadrature misses its tolerance or the sum is not finite.
    """
    report, fr = _residues_or_quad(params, rtol)
    return _position_variance(params, noise_model, report, fr, rtol)


def integrate_variances(
    params: NormalizedParams,
    noise_model: ThermalNoiseModel = ThermalNoiseModel.QUANTUM_COTH,
    omega_max: float = 100.0,
    rtol: float = 1e-8,
) -> VarianceResult:
    """Mirror variances of the exact spectrum.

    Routes:

    * dq^2, both weights: :func:`position_variance`, a sum of residues
      at the drift eigenvalues (adaptive quadrature near coincident
      poles).
    * dp^2, flat weight: the same residues, sum_j -(T alpha_j + f_j)
      a_j/2, from int w^2 dw/(w^2 + a^2) = -pi a once the sum over j of
      the numerators vanishes.
    * dp^2, coth weight: w^2 S_q falls off only like 2/(Q |w|), so the
      variance is cut off at ``omega_max`` by definition and no contour
      closes it. It stays one adaptive quadrature on [0, omega_max] to
      ``rtol``, on a mesh split at the resonances.

    ``omega_max`` therefore affects only dp^2 under the coth weight (and,
    where poles nearly coincide, where the flat dp^2 quadrature splits off
    its tail). ``quadrature_error``
    sums the errors of dq^2 and dp^2: a round-off bound for a residue
    sum; for a quadrature its error estimate, plus the one-decade tail
    bound 2 ln(10)/(pi Q) for dp^2 under the coth weight.

    Raises
    ------
    Unstable
        If :func:`~optocool.model.classify` finds the point unstable.
    QuadratureFailure
        If a quadrature misses its tolerance or a sum is not finite.
    """
    if not 2.0 < omega_max < math.inf:
        raise InvalidParams(f"omega_max must be finite and > 2, got {omega_max}")
    report, fr = _residues_or_quad(params, rtol)
    dq2, err_q = _position_variance(params, noise_model, report, fr, rtol)
    if fr is not None and noise_model is ThermalNoiseModel.MARKOV_FLAT:
        weight = _flat_weight(params)
        dp2, err_p = _residue_sum(
            [-0.5 * (weight * al + f) * a for a, al, f in zip(fr.a, fr.alpha, fr.f)],
            fr.roundoff,
        )
    else:
        dp2, err_p = _quad_moment(params, report, noise_model, 2, omega_max, rtol)

    return VarianceResult.from_variances(
        dq2, dp2,
        method=Method.EXACT_SPECTRUM,
        noise_model=noise_model,
        quadrature_error=err_q + err_p,
    )
