"""Effective-oscillator approximation of the cooled mirror.

When the dressed mirror response stays sharply peaked at the mechanical
resonance (Gamma << Gamma_eff << kappa), the cavity acts on the mirror
as a second bath at vacuum temperature. The closed-form steady-state
variance then splits into a thermal and a radiation-pressure part,

    dq^2 = (1 - eta) (1 + 2 n_t_i) + eta (1 + b^2 + phi^2) / (2 phi b),

weighted by a transfer efficiency eta = f phi_nl Q / (1 + f phi_nl Q)
with coupling shape factor f = 4 phi b / ((1 - b^2 + phi^2)^2 + 4 b^2).
Maximizing f over the detuning gives the closed-form optimum phi*.

This module provides the effective rates, the closed-form variance and
its decomposition, the optimal detuning, regime-validity flags, and an
optimizer (a coarse grid refined by Brent's bounded search) whose
objective is the *exact* spectrum integral (the closed form only seeds
the search). The searches of the scanned bandwidths run in lockstep,
one stacked spectrum call per round, and Brent's search is written here,
so the module needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ImaginaryFrequency,
    InvalidParams,
    InvalidRegime,
    OptimizationFailure,
    QuadratureFailure,
    Unstable,
)
from .model import NormalizedParams, classify
from .spectra import Method, ThermalNoiseModel, VarianceResult, integrate_variances

__all__ = [
    "EffectiveOscillator",
    "CoolingDecomposition",
    "RegimeReport",
    "OperatingPoint",
    "effective_rates",
    "approx_variance",
    "decompose",
    "optimal_detuning",
    "regime_validity",
    "optimize_operating_point",
]


@dataclass(frozen=True)
class EffectiveOscillator:
    """Cavity-dressed oscillator parameters, as ratios to the bare ones."""

    omega_eff_ratio: float  # Omega_eff / Omega_m
    gamma_eff_ratio: float  # Gamma_eff / Gamma; <= 0 signals heating
    q_eff: float            # Omega_eff / Gamma_eff


@dataclass(frozen=True)
class CoolingDecomposition:
    """Thermal/radiation split of the closed-form variance."""

    f: float
    eta: float
    dq2_thermal: float
    dq2_radiation: float
    dq2: float


class RegimeReport(NamedTuple):
    adiabatic_ok: bool
    gamma_eff_over_gamma: float
    gamma_eff_over_kappa: float
    phi_nl_omega_over_2kappa: float


class OperatingPoint(NamedTuple):
    b_opt: float
    phi_opt: float
    n_t_f_min: float


def _closed_form(params: NormalizedParams) -> tuple[float, float, float]:
    """(Omega_eff/Omega_m)^2, Gamma_eff/Gamma (:func:`effective_rates`) and |D(1)|^2."""
    b, phi = params.b, params.phi
    cross = 2.0 * phi * params.phi_nl
    re = 1.0 - b * b + phi * phi  # Re D(1); not ** 2, which raises where the square overflows
    inv = 1.0 / complex(re, -2.0 * b)
    omega_eff2 = 1.0 - cross * inv.real
    gamma_ratio = 1.0 + cross * params.q_factor * inv.imag
    return omega_eff2, gamma_ratio, re * re + 4.0 * b * b


def effective_rates(params: NormalizedParams) -> EffectiveOscillator:
    """Effective resonance frequency and relaxation rate of the mirror.

    Omega_eff/Omega_m = sqrt(1 - 2 phi phi_nl Re[1/D(1)]) and
    Gamma_eff/Gamma = 1 + 2 phi phi_nl Q Im[1/D(1)], with the cavity
    response at the mechanical resonance D(1) = (1 - i b)^2 + phi^2. A negative
    damping ratio is returned as-is (blue-detuned heating); a non-real
    frequency raises ImaginaryFrequency, an overflow InvalidParams. These
    are a resonance approximation: stability is :func:`~optocool.model.classify`'s.
    """
    w2, gamma_ratio, _ = _closed_form(params)
    if not (math.isfinite(w2) and math.isfinite(gamma_ratio)):
        raise InvalidParams(f"closed-form effective rates are not finite ({w2}, {gamma_ratio})")
    if w2 <= 0:
        raise ImaginaryFrequency(
            f"effective spring softened away (1 - 2 phi phi_nl Re[1/D] = {w2:.3g})"
        )
    omega_ratio = math.sqrt(w2)
    q_eff = params.q_factor * omega_ratio / gamma_ratio if gamma_ratio != 0 else math.inf
    return EffectiveOscillator(
        omega_eff_ratio=omega_ratio,
        gamma_eff_ratio=gamma_ratio,
        q_eff=q_eff,
    )


def approx_variance(params: NormalizedParams) -> VarianceResult:
    """Closed-form steady-state variance in the adiabatic limit.

    dq^2 = (Gamma/Gamma_eff) [2 n_t_i + 1
           + 2 phi_nl Q (1 + b^2 + phi^2) / ((1 - b^2 + phi^2)^2 + 4 b^2)]

    The momentum variance is set equal to dq^2: the more general
    two-variance forms reduce to this one when the mechanical frequency
    dominates the effective damping, and the exact spectrum remains the
    authority whenever they differ.

    Raises
    ------
    Unstable
        If :func:`~optocool.model.classify` finds the point unstable.
    ImaginaryFrequency
        If the closed-form effective frequency is not real.
    InvalidRegime
        If the point is stable but Gamma_eff <= 0, where the closed form
        has no meaning.
    InvalidParams
        If the closed form overflows.
    """
    classify(params).require_stable()
    rates = effective_rates(params)
    if rates.gamma_eff_ratio <= 0:
        raise InvalidRegime(
            f"effective damping ratio {rates.gamma_eff_ratio:.3g} <= 0"
        )
    b, phi = params.b, params.phi
    radiation = 2.0 * params.phi_nl * params.q_factor * (1.0 + b * b + phi * phi)
    dq2 = (2.0 * params.n_t_i + 1.0 + radiation / _closed_form(params)[2]) / rates.gamma_eff_ratio
    if not math.isfinite(dq2):
        raise InvalidParams(f"closed-form variance is not finite ({dq2})")
    return VarianceResult.from_variances(
        dq2, dq2,
        method=Method.ADIABATIC,
        noise_model=ThermalNoiseModel.MARKOV_FLAT,  # resonance weight, same for both
    )


def decompose(params: NormalizedParams) -> CoolingDecomposition:
    """Split the closed-form variance into thermal and radiation parts.

    Defined on the cooling side (phi > 0) only, where the radiation
    term (1 + b^2 + phi^2)/(2 phi b) is a positive variance bounded
    below by 1: else :class:`~optocool.errors.InvalidRegime`. Where the
    split is not finite (phi b underflows), it raises
    :class:`~optocool.errors.InvalidParams`.
    """
    if params.phi <= 0:
        raise InvalidRegime(f"decomposition requires phi > 0, got {params.phi}")
    b, phi = params.b, params.phi
    f = 4.0 * phi * b / _closed_form(params)[2]
    strength = f * params.phi_nl * params.q_factor
    eta = strength / (1.0 + strength)
    dq2_thermal = 1.0 + 2.0 * params.n_t_i
    dq2_radiation = (1.0 + b * b + phi * phi) / (2.0 * phi * b) if phi * b > 0.0 else math.inf
    dq2 = (1.0 - eta) * dq2_thermal + eta * dq2_radiation
    if not math.isfinite(dq2):
        raise InvalidParams(f"closed-form decomposition is not finite ({dq2})")
    return CoolingDecomposition(
        f=f,
        eta=eta,
        dq2_thermal=dq2_thermal,
        dq2_radiation=dq2_radiation,
        dq2=dq2,
    )


def optimal_detuning(b: float) -> float:
    """Detuning phi* maximizing the coupling shape factor f at fixed b.

    phi* = sqrt((b^2 - 1 + 2 sqrt(1 + b^2 + b^4)) / 3); phi* -> b from
    above as b -> infinity.
    """
    if not b > 0:
        raise InvalidParams(f"b must be > 0, got {b}")
    try:
        return math.sqrt((b * b - 1.0 + 2.0 * math.sqrt(1.0 + b * b + b**4)) / 3.0)
    except OverflowError:
        raise InvalidParams(f"b = {b} overflows the optimal-detuning formula") from None


def regime_validity(params: NormalizedParams) -> RegimeReport:
    """Flags for the validity of the effective-oscillator treatment.

    Requires a strongly enhanced damping that still fits inside the
    cavity bandwidth (Gamma << Gamma_eff << kappa) and a coupling weak
    enough that the cavity follows the mirror (phi_nl Omega_m < 2
    kappa). Thresholds: Gamma_eff/Gamma > 10, Gamma_eff/kappa < 0.5,
    phi_nl b / 2 < 1.
    """
    gamma_ratio = _closed_form(params)[1]
    gamma_over_kappa = gamma_ratio * params.b / params.q_factor
    breakdown = params.phi_nl * params.b / 2.0
    ok = gamma_ratio > 10.0 and gamma_over_kappa < 0.5 and breakdown < 1.0
    return RegimeReport(
        adiabatic_ok=ok,
        gamma_eff_over_gamma=gamma_ratio,
        gamma_eff_over_kappa=gamma_over_kappa,
        phi_nl_omega_over_2kappa=breakdown,
    )


#: ratio of neighbouring detunings on the optimizer's coarse grid
_GRID_RATIO = 2.0 ** 0.25
#: most steps the optimizer takes beyond an edge of its detuning grid (a
#: factor 16 past it)
_EDGE_STEPS = 16
#: the errors of a probe that the optimizer scores inf
_SCORED_INF = (Unstable, QuadratureFailure, InvalidParams)
#: Brent's constants and probe limit, as scipy's ``fminbound`` has them
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_BRENT_MAXFUN = 500


def _bounded_brent(lo, hi, xatol):
    """Brent's bounded minimization of a function on [lo, hi], as a search.

    A search is a generator: it yields a list of abscissae to score,
    receives their scores as a list, and returns (x, f(x)) of its best
    point. This one yields one abscissa at a time. It is Brent's
    ``localmin`` (*Algorithms for Minimization without Derivatives*, 1973,
    ch. 5) as scipy's ``minimize_scalar(method="bounded")`` transcribes
    it: the same constants, tolerance test and parabolic/golden step rule,
    so it probes the same abscissae and returns the same point, bit for
    bit. It runs on Python floats: an inf score makes the parabolic step
    inf or inf - inf = nan, which fails the acceptability test and falls
    back to a golden-section step, with no floating-point warning.
    """
    a, b = float(lo), float(hi)
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    (fx,) = yield [xf]
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN_MEAN * e
        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0 else xf - step
        (fu,) = yield [x]
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _BRENT_MAXFUN:
            break
    return xf, fx


def _detuning_search(b):
    """The optimizer's search over the detuning at one b (see :func:`_bounded_brent`).

    The 9-point grid, then the edge steps one at a time, then Brent's
    probes; returns (phi, n_t_f) of the best probe, or (None, inf) where
    every grid point scores inf.
    """
    phi_star = optimal_detuning(b)
    grid = (phi_star * np.geomspace(0.5, 2.0, 9)).tolist()
    probes = dict(zip(grid, (yield grid)))
    coarse = list(probes)
    i = int(np.argmin(list(probes.values())))
    if math.isinf(probes[coarse[i]]):
        return None, math.inf
    if i in (0, len(coarse) - 1):
        # the minimum may lie beyond the grid: keep stepping outward at the
        # grid's own ratio while the value falls
        edge, ratio = coarse[i], _GRID_RATIO if i else 1.0 / _GRID_RATIO
        for _ in range(_EDGE_STEPS):
            phi = edge * ratio
            (probes[phi],) = yield [phi]
            if not probes[phi] < probes[edge]:
                break
            edge = phi
    coarse = sorted(probes)
    vals = [probes[phi] for phi in coarse]
    i = int(np.argmin(vals))
    lo, hi = coarse[max(i - 1, 0)], coarse[min(i + 1, len(coarse) - 1)]
    phi_best, val = yield from _bounded_brent(lo, hi, 1e-3 * phi_star)
    if vals[i] < val:
        return coarse[i], vals[i]
    return phi_best, val


def _locked_search(b):
    """The search with the detuning pinned to phi = b: one probe."""
    (val,) = yield [b]
    return b, val


def optimize_operating_point(
    b_range,
    phi_nl: float,
    q_factor: float,
    n_t_i: float,
    noise_model: ThermalNoiseModel = ThermalNoiseModel.QUANTUM_COTH,
    omega_max: float = 100.0,
    lock_phi_to_b: bool = False,
) -> OperatingPoint:
    """Minimize the exact final occupancy over bandwidth and detuning.

    For each b on the grid the detuning is first scanned on 9 points
    spaced geometrically over [phi*(b)/2, 2 phi*(b)] around the
    closed-form optimum. When the best of them is an end point, the scan
    steps outward at the grid's ratio 2^(1/4) until the value rises, a
    probe scores inf or 16 steps are taken. The bracket around the best
    probe is then refined by Brent's bounded search to 1e-3 phi*(b), and
    the best probe is kept if it beats the refinement. The objective is
    always ``integrate_variances`` (the exact spectrum), never the closed form;
    a point that is unstable or fails to integrate scores inf. With
    ``lock_phi_to_b`` the detuning is pinned to phi = b and only b is
    scanned.

    The searches of different b do not depend on each other, so they run
    in lockstep: each round, the probes that every unfinished search asks
    for next are scored by one ``integrate_variances`` call on a sequence
    (one stacked computation from three stable rows on). The first round
    holds every detuning grid (with ``lock_phi_to_b``, the whole list of
    b); every later round holds one edge step or Brent probe per search
    still running. Each search probes the same points as it would alone.
    ``b_range`` is the sequence of bandwidths b to scan, in order (the
    CLI passes its ``sweep`` values of b, or b alone).
    Deterministic for a fixed grid; ties go to the earlier b of
    ``b_range``.

    Raises
    ------
    InvalidParams
        If ``b_range`` is empty, if a b is not > 0 (with phi free), or
        from ``integrate_variances`` if ``omega_max`` is not finite and > 2.
    OptimizationFailure
        If every probed point is unstable or fails to integrate (the
        last failure of the last b that had one named).
    """
    b_grid = [float(b) for b in b_range]
    if not b_grid:
        raise InvalidParams("empty b_range")
    search = _locked_search if lock_phi_to_b else _detuning_search
    searches = [search(b) for b in b_grid]
    failures = [None] * len(b_grid)  # per b, the last error other than Unstable scored inf

    def objectives(rows):
        """The objective at each (j, phi) of ``rows``, from one ``integrate_variances`` call."""
        scores, points = [math.inf] * len(rows), {}
        for i, (j, phi) in enumerate(rows):
            try:
                points[i] = NormalizedParams(b=b_grid[j], phi=phi, phi_nl=phi_nl,
                                             q_factor=q_factor, n_t_i=n_t_i)
            except InvalidParams as exc:
                failures[j] = exc
        results = integrate_variances(list(points.values()), noise_model=noise_model,
                                      omega_max=omega_max)
        for i, res in zip(points, results):
            if isinstance(res, VarianceResult):
                scores[i] = float(res.n_t_f)
            elif not isinstance(res, _SCORED_INF):
                raise res
            elif not isinstance(res, Unstable):
                failures[rows[i][0]] = res
        return scores

    found = [None] * len(b_grid)  # per b, its search's (phi, n_t_f)
    pending = {j: next(s) for j, s in enumerate(searches)}
    while pending:
        scores = iter(objectives([(j, phi) for j, phis in pending.items() for phi in phis]))
        asked, pending = pending, {}
        for j, phis in asked.items():
            try:
                pending[j] = searches[j].send([next(scores) for _ in phis])
            except StopIteration as done:
                found[j] = done.value

    best = (math.inf, math.inf, math.inf)  # (n_t_f, b, phi)
    for b, (phi, val) in zip(b_grid, found):
        if val < best[0]:
            best = (val, b, phi)
    failure = next((exc for exc in reversed(failures) if exc is not None), None)
    if math.isinf(best[0]) and failure is not None:
        raise OptimizationFailure("no probe in the search range could be scored (last error "
                                  f"{type(failure).__name__}: {failure})") from failure
    if math.isinf(best[0]):
        raise OptimizationFailure("no stable operating point in the search range")
    return OperatingPoint(b_opt=best[1], phi_opt=best[2], n_t_f_min=best[0])
