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
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import InvalidParams, QuadratureFailure, SingularResponse
from .model import NormalizedParams, classify

__all__ = [
    "ThermalNoiseModel",
    "Method",
    "SpectrumSample",
    "VarianceResult",
    "coth_scale",
    "cavity_response",
    "effective_susceptibility",
    "noise_spectrum",
    "integrate_variances",
    "MIN_RTOL",
]

#: smallest relative tolerance the adaptive quadrature accepts
MIN_RTOL = 50.0 * sys.float_info.epsilon


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
class SpectrumSample:
    """One point of the position-fluctuation spectrum."""

    omega: float
    s_q: float


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


def _thermal_weight(omega, params: NormalizedParams, noise_model: ThermalNoiseModel):
    """Thermal weight T(w); even in w, with the w = 0 coth limit built in."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    q = params.q_factor
    if noise_model is ThermalNoiseModel.MARKOV_FLAT:
        return np.full(w.shape, 2.0 * (2.0 * params.n_t_i + 1.0) / q)
    x = coth_scale(params.n_t_i)
    if math.isinf(x):  # zero-temperature bath: coth(x w) -> sign(w)
        return 2.0 * np.abs(w) / q
    out = np.empty_like(w)
    nz = w != 0.0
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
    d, denom = _response_parts(w, params)
    dabs2 = (d * d.conjugate()).real
    num = _thermal_weight(w, params, noise_model) * dabs2 + 4.0 * params.phi_nl * (
        1.0 + params.phi**2 + (params.b * w) ** 2
    )
    denom2 = (denom * denom.conjugate()).real
    if np.any(denom2 < 1e-26 * (1.0 + w * w) ** 2):
        raise SingularResponse(f"spectrum denominator vanishes near omega={omega!r}")
    out = num / denom2
    if not np.all(np.isfinite(out)):
        bad = w[~np.isfinite(out)][0]
        raise SingularResponse(f"spectrum overflows at omega={bad!r}")
    return out


def _scalar_spectrum_fn(params: NormalizedParams, noise_model: ThermalNoiseModel):
    """Plain-Python S_q(w) closure, cheap enough for adaptive quadrature."""
    b, phi, phi_nl, q = params.b, params.phi, params.phi_nl, params.q_factor
    phi2 = phi * phi
    two_cross = 2.0 * phi * phi_nl
    four_nl = 4.0 * phi_nl
    if noise_model is ThermalNoiseModel.MARKOV_FLAT:
        flat = 2.0 * (2.0 * params.n_t_i + 1.0) / q

        def thermal(w):
            return flat

    else:
        x = coth_scale(params.n_t_i)
        if math.isinf(x):

            def thermal(w):
                return 2.0 * abs(w) / q

        else:

            def thermal(w):
                if w == 0.0:
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
        return (thermal(w) * dabs2 + four_nl * (1.0 + phi2 + (b * w) ** 2)) / denom2

    return s_q


def noise_spectrum(
    omega: float,
    params: NormalizedParams,
    noise_model: ThermalNoiseModel = ThermalNoiseModel.QUANTUM_COTH,
) -> SpectrumSample:
    """Symmetrized position-fluctuation spectrum S_q at one frequency."""
    classify(params).require_stable()
    val = float(_spectrum_values(np.array([omega]), params, noise_model)[0])
    return SpectrumSample(omega=float(omega), s_q=val)


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


def integrate_variances(
    params: NormalizedParams,
    noise_model: ThermalNoiseModel = ThermalNoiseModel.QUANTUM_COTH,
    omega_max: float = 100.0,
    rtol: float = 1e-8,
) -> VarianceResult:
    """Mirror variances by adaptive quadrature of the exact spectrum.

    The integrand is even, so only [0, omega_max] is integrated and
    doubled. The mesh is pre-split at the (possibly shifted and
    broadened) mechanical resonance and at the cavity feature near
    w = phi/b, whose widths can be orders of magnitude below the plain
    mesh scale. Beyond the cutoff the remaining tail is integrated to
    infinity, except for dp^2 under the quantum coth weight, whose tail
    grows logarithmically with the cutoff: there the one-decade tail
    bound 2 ln(10)/(pi Q) is folded into ``quadrature_error`` instead.

    Raises
    ------
    Unstable
        If :func:`~optocool.model.classify` finds the point unstable.
    QuadratureFailure
        If the error estimate exceeds the requested tolerance.
    """
    if not omega_max > 2.0:
        raise InvalidParams(f"omega_max must be > 2, got {omega_max}")
    if not rtol > MIN_RTOL:
        raise InvalidParams(f"rtol must be > {MIN_RTOL:.3g}, got {rtol}")
    report = classify(params).require_stable()

    # a stable point can still have Gamma_eff < 0 (the closed form is a
    # resonance approximation); its magnitude still sizes the peak
    w2 = report.omega_eff2
    peak = math.sqrt(w2) if w2 > 0 else 1.0
    halfwidth = max(abs(report.gamma_eff_ratio) / (2.0 * params.q_factor), 1e-12)
    cavity = abs(params.phi) / params.b
    seeds = [
        peak - 5.0 * halfwidth, peak - halfwidth, peak, peak + halfwidth,
        peak + 5.0 * halfwidth, 1.0,
        cavity - 1.0 / params.b, cavity, cavity + 1.0 / params.b,
    ]
    points = sorted({p for p in seeds if 0.0 < p < omega_max})

    s_q = _scalar_spectrum_fn(params, noise_model)

    def f_q(w):
        return s_q(w)

    def f_p(w):
        return w * w * s_q(w)

    iq, eq = _checked_quad(f_q, 0.0, omega_max, rtol, points=points)
    iq_tail, eq_tail = _checked_quad(f_q, omega_max, math.inf, rtol)
    dq2 = (iq + iq_tail) / math.pi
    err_q = (eq + eq_tail) / math.pi

    ip, ep = _checked_quad(f_p, 0.0, omega_max, rtol, points=points)
    if noise_model is ThermalNoiseModel.MARKOV_FLAT:
        ip_tail, ep_tail = _checked_quad(f_p, omega_max, math.inf, rtol)
    else:
        ip_tail = 0.0
        ep_tail = 2.0 * math.log(10.0) / params.q_factor  # cutoff-dependence bound
    dp2 = (ip + ip_tail) / math.pi
    err_p = (ep + ep_tail) / math.pi

    return VarianceResult.from_variances(
        dq2, dp2,
        method=Method.EXACT_SPECTRUM,
        noise_model=noise_model,
        quadrature_error=err_q + err_p,
    )
