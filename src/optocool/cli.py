"""Command-line front end: config parsing, sweeps, deterministic CSV.

Configuration documents are flat key = value text: one key per line,
full-line ``#`` comments, nested fields dot-separated
(``sweep.variable = phi``).
Modes ``fig1``/``fig2``/``fig3`` are presets for the standard cooling
curves (variances versus bandwidth, variances versus detuning, and the
cooling transient with its output-field record); they never require SI
input. Identical config and package version produce byte-identical CSV.

Invocation::

    optocool <mode> [--config FILE] [--out FILE] [--set KEY=VALUE]...

Each flag also takes the ``--flag=value`` form (the only one for a
value that starts with ``-``) and is spelled out in full (no
abbreviations). Without a mode token the config's ``mode`` key
names the mode. ``-h``/``--help`` prints the usage line and the modes.

Exit codes: 0 success, 2 config error, 3 runtime error. An argv error
(an unknown flag, a flag without a value, a stray argument, an unknown
or missing mode) is a config error: exit 2 and one JSON record on
stderr, like every other error.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, make_dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .adiabatic import (
    approx_variance,
    decompose,
    effective_rates,
    optimal_detuning,
    optimize_operating_point,
    regime_validity,
)
from .dynamics import (
    build_system,
    evolve_covariance,
    homodyne_readout,
    output_variance_track,
)
from .errors import (
    ImaginaryFrequency,
    InvalidParams,
    InvalidRegime,
    NoStableBranch,
    OptocoolError,
    ParseError,
    SolverFailure,
    Unstable,
    ValidationError,
)
from .model import (
    NormalizedParams,
    PhysicalParams,
    classify,
    normalize,
    solve_steady_state,
)
from .spectra import (
    ThermalNoiseModel,
    integrate_variances,
    noise_spectrum,
    position_variance,
)

# unused; perfbench/tracer.py wraps these names in this module
_effective_peak = _static_margins = _spectrum_values = None
homodyne_variance = matched_filter_pairs = two_time_correlations = None

SWEEPABLE = ("b", "phi", "phi_nl", "q_factor", "n_t_i")
# config key -> field of SweepSpec / PhysicalParams
_SWEEP_KEYS = {f"sweep.{f}": f for f in ("variable", "start", "stop", "points", "spacing")}
_PHYSICAL_KEYS = {
    f"physical.{f}": f
    for f in (
        "omega_m", "kappa", "gamma", "mass", "cavity_length", "omega_c",
        "delta_c", "drive_intensity", "temperature",
    )
}

class Key(NamedTuple):
    """One config key: how its text is read, where it lands, what it may hold.

    ``attr`` names the RunConfig field the value fills (``default`` when
    the key is absent); keys without one build the operating point, the
    sweep or the noise model in :func:`parse_config`. Floats must be
    finite. ``domain`` is an (op, bound) pair for numbers and the allowed
    values for text; the normalized and physical operating-point fields
    take theirs from :class:`NormalizedParams` and :class:`PhysicalParams`.
    """

    kind: type
    attr: str | None = None
    default: object = None
    domain: tuple = ()


KEYS = {
    **{name: Key(float) for name in SWEEPABLE},
    "sweep.variable": Key(str, domain=SWEEPABLE),
    "sweep.start": Key(float),
    "sweep.stop": Key(float),
    "sweep.points": Key(int, domain=(">=", 2)),
    "sweep.spacing": Key(str, domain=("linear", "log")),
    "noise_model": Key(str, domain=tuple(m.value for m in ThermalNoiseModel)),
    "tolerances.omega_max": Key(float, "omega_max", 100.0, (">", 2)),
    "output_path": Key(str, "output_path"),
    "lock_phi_to_b": Key(bool, "lock_phi_to_b", False),
    "steady.phi_c": Key(float, "phi_c"),
    "steady.drive": Key(float, "drive", None, (">=", 0)),
    "spectrum.omega_start": Key(float, "omega_start", -2.0),
    "spectrum.omega_stop": Key(float, "omega_stop", 2.0),
    "spectrum.omega_points": Key(int, "omega_points", 801, (">=", 2)),
    "dynamics.t_end": Key(float, "t_end", None, (">", 0)),
    "dynamics.samples": Key(int, "samples", 401, (">=", 2)),
    "homodyne.lo_rate": Key(float, "lo_rate", None, (">", 0)),
    "homodyne.demod_rate": Key(float, "demod_rate"),
    "homodyne.quadrature": Key(str, "homodyne_quadrature", "x_out", ("x_out", "y_out")),
    **{key: Key(float) for key in _PHYSICAL_KEYS},
}

_DEFAULTS = {spec.attr: spec.default for spec in KEYS.values() if spec.attr}
#: the operating point, read as one unit: the normalized or the physical keys
_NORMALIZED = frozenset(SWEEPABLE)
_POINT = _NORMALIZED | _PHYSICAL_KEYS.keys()
_COMPARE = {">": operator.gt, ">=": operator.ge}
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


@dataclass
class SweepSpec:
    variable: str
    start: float
    stop: float
    points: int
    spacing: str = "linear"

    def values(self) -> np.ndarray:
        return _grid(self.start, self.stop, self.points, self.spacing)


def _grid(start: float, stop: float, points: int, spacing: str = "linear") -> np.ndarray:
    """``points`` values from start to stop; InvalidParams where the span
    overflows or numpy cannot allocate the points."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the finiteness test follows
            grid = (np.geomspace if spacing == "log" else np.linspace)(start, stop, points)
    except (ValueError, MemoryError) as exc:  # past numpy's largest array, or the memory
        raise InvalidParams(f"cannot build a grid of {points} points ({exc})") from None
    if not np.all(np.isfinite(grid)):
        raise InvalidParams(f"the grid from {start} to {stop} overflows")
    return grid


#: A validated run: the operating point, the sweep, the noise model, the
#: expanded config text (``raw``) and one field per KEYS entry with an attr.
RunConfig = make_dataclass(
    "RunConfig",
    [("mode", str), ("params", NormalizedParams | None), ("sweep", SweepSpec | None),
     ("noise_model", ThermalNoiseModel), ("raw", dict)]
    + [(spec.attr, spec.kind) for spec in KEYS.values() if spec.attr],
    namespace={"__module__": __name__},
)


@dataclass
class ResultTable:
    columns: tuple            # ((name, unit), ...)
    rows: list                # tuples aligned with columns; None = empty field
    metadata: list            # ordered (key, value) pairs


def _parse_kv(text: str) -> dict:
    """Syntax layer: flat key = value lines, full-line '#' comments."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ParseError("empty key", line=lineno)
        out[key] = value
    return out


def _read(key: str, spec: Key, text: str):
    """(value, None) for a valid entry, (None, violation) otherwise."""
    kind, domain = spec.kind, spec.domain
    try:
        value = _BOOLS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        return None, f"{key}: cannot interpret {text!r}"
    if kind is float and not math.isfinite(value):
        return None, f"{key}: must be finite, got {text!r}"
    if not domain:
        return value, None
    if kind is str:
        if value not in domain:
            return None, f"{key}: must be one of {', '.join(domain)}, got {value!r}"
    elif not _COMPARE[domain[0]](value, domain[1]):
        return None, f"{key}: must be {domain[0]} {domain[1]}, got {value}"
    return value, None


def _operating_point(merged: dict, vals: dict, violations: list):
    """The NormalizedParams of a run, built when every field it needs is valid."""
    normalized = [k for k in SWEEPABLE if k in merged]
    physical = [k for k in _PHYSICAL_KEYS if k in merged]
    if normalized and physical:
        violations.append(
            "params: give either normalized (b, phi, ...) or physical.* keys, not both"
        )
    elif physical:
        missing = [f for k, f in _PHYSICAL_KEYS.items() if k not in merged]
        if missing:
            violations.append(f"physical: missing fields {', '.join(missing)}")
        elif all(k in vals for k in physical):
            try:
                return normalize(PhysicalParams(**{_PHYSICAL_KEYS[k]: vals[k] for k in physical}))
            except InvalidParams as exc:
                violations += [f"physical: {p}" for p in exc.problems]
            except (NoStableBranch, SolverFailure) as exc:
                violations.append(f"physical: {exc}")
    elif normalized:
        missing = [k for k in SWEEPABLE if k not in merged]
        if missing:
            violations.append(f"params: missing fields {', '.join(missing)}")
        elif all(k in vals for k in normalized):
            try:
                return NormalizedParams(**{k: vals[k] for k in normalized})
            except InvalidParams as exc:
                violations += [f"params: {p}" for p in exc.problems]
    else:
        violations.append("params: an operating point is required for this mode")
    return None


def _sweep(merged: dict, vals: dict, violations: list):
    given = [k for k in _SWEEP_KEYS if k in merged]
    if not given:
        return None
    if not {"sweep.variable", "sweep.start", "sweep.stop", "sweep.points"} <= merged.keys():
        violations.append("sweep: needs variable, start, stop and points")
    elif all(k in vals for k in given):
        sweep = SweepSpec(**{_SWEEP_KEYS[k]: vals[k] for k in given})
        if sweep.spacing == "log" and not (sweep.start > 0 and sweep.stop > 0):
            violations.append("sweep.spacing: log spacing requires start and stop > 0")
        else:
            return sweep
    return None


def parse_config(
    text: str,
    mode: str | None = None,
    overrides: dict | None = None,
) -> RunConfig:
    """Parse and validate a configuration document into a RunConfig.

    ``mode`` (the CLI subcommand) takes precedence over a ``mode`` key in
    the document; ``overrides`` are applied on top of the document, and
    the document on top of the mode's preset (:data:`MODES`). Every other
    key must be one the mode ``reads``, and is checked through
    :data:`KEYS`; a sweep must be over one of the mode's ``sweeps``.
    Raises :class:`ParseError` on malformed syntax and
    :class:`ValidationError` carrying *every* violated invariant.
    """
    raw = _parse_kv(text)
    if overrides:
        raw.update(overrides)
    mode = mode or raw.get("mode")
    violations = []
    if mode is None:
        raise ValidationError(["mode: missing (give a subcommand or a mode key)"])
    if mode not in MODES:
        raise ValidationError([f"mode: unknown mode {mode!r}"])
    if "mode" in raw and raw["mode"] != mode:
        violations.append(
            f"mode: config says {raw['mode']!r} but {mode!r} was requested"
        )
    entry = MODES[mode]
    merged = dict(entry.preset)
    merged.update(raw)
    merged.pop("mode", None)

    vals, settings = {}, dict(_DEFAULTS)
    for key in sorted(merged):
        spec = KEYS.get(key)
        if spec is None:
            violations.append(f"{key}: unknown key")
        elif key not in entry.reads:
            violations.append(f"{key}: mode {mode!r} does not read it")
        else:
            value, problem = _read(key, spec, merged[key])
            if problem is not None:
                violations.append(problem)
            elif spec.attr:
                settings[spec.attr] = value
            else:
                vals[key] = value
    merged = {k: v for k, v in merged.items() if k in entry.reads}

    params = _operating_point(merged, vals, violations) if _NORMALIZED <= entry.reads else None
    sweep = _sweep(merged, vals, violations)
    variable = vals.get("sweep.variable")
    if variable is not None and variable not in entry.sweeps:
        violations.append(f"sweep.variable: mode {mode!r} cannot sweep {variable!r}")
    if mode == "steady" and not ("steady.phi_c" in merged and "steady.drive" in merged):
        violations.append("steady: needs steady.phi_c and steady.drive")

    if violations:
        raise ValidationError(violations)
    return RunConfig(
        mode=mode, params=params, sweep=sweep,
        noise_model=ThermalNoiseModel(vals.get("noise_model", entry.noise)),
        raw=dict(merged), **settings,
    )


def _sweep_points(cfg: RunConfig):
    """Yield (label columns, params-or-None); None params marks an invalid point."""
    if cfg.sweep is None:
        yield (), cfg.params
        return
    for value in cfg.sweep.values():
        fields = {cfg.sweep.variable: float(value)}
        if cfg.lock_phi_to_b and cfg.sweep.variable == "b":
            fields["phi"] = float(value)
        try:
            yield (float(value),), cfg.params.replace(**fields)
        except InvalidParams:
            yield (float(value),), None


def _sweep_table(columns: tuple, rows):
    """Table builder for a mode that evaluates a sweep's points together.

    ``rows(cfg, points)`` takes the valid points of the sweep and returns,
    for each, its fields and its stability verdict. A row holds the sweep
    value (when there is a sweep), those fields and the verdict. An
    invalid point leaves the fields empty; a short return is padded.
    """
    def table(cfg: RunConfig):
        label = () if cfg.sweep is None else ((cfg.sweep.variable, "dimensionless"),)
        swept = list(_sweep_points(cfg))
        built = iter(rows(cfg, [params for _, params in swept if params is not None]))
        out = []
        for prefix, params in swept:
            body, stable = ((), False) if params is None else next(built)
            out.append(prefix + body + (None,) * (len(columns) - len(body)) + (stable,))
        return label + columns + (("stable", "bool"),), out

    return table


def _exact_rows(points: list, results: list, fields) -> list:
    """A row per point of a stack: ``fields(params, result)`` and True, or () and False.

    Unstable is the one unstable verdict and leaves the row empty; any
    other error at a point ends the run, as no empty row is marked stable.
    """
    for res in results:
        if isinstance(res, Exception) and not isinstance(res, Unstable):
            raise res
    return [((), False) if isinstance(res, Unstable) else (fields(params, res), True)
            for params, res in zip(points, results)]


def _closed_form(fn, params: NormalizedParams):
    """``fn(params)``, or None where the closed form is undefined at the point."""
    try:
        return fn(params)
    except (Unstable, ImaginaryFrequency, InvalidRegime, InvalidParams):
        return None


def _variances_rows(cfg: RunConfig, points: list, width: int = 4) -> list:
    """The variances of the whole sweep in one stack."""
    results = integrate_variances(points, cfg.noise_model, omega_max=cfg.omega_max)
    return _exact_rows(points, results, lambda _, res: (
        res.dq2, res.dp2, res.n_t_f, res.quadrature_error)[:width])


def _fig2_rows(cfg: RunConfig, points: list) -> list:
    """The exact dq2 of the sweep in one stack, and the closed-form dq2 where it is defined."""
    def fields(params, res):
        var = _closed_form(approx_variance, params)
        return res[0], None if var is None else var.dq2

    return _exact_rows(points, position_variance(points, cfg.noise_model), fields)


def _adiabatic_rows(cfg: RunConfig, points: list) -> list:
    """Each point on its own, by :func:`_adiabatic_row`; empty where the closed form is undefined."""
    return [(_closed_form(_adiabatic_row, params) or (), classify(params).stable)
            for params in points]


def _adiabatic_row(params: NormalizedParams) -> tuple:
    """Effective rates, then the closed-form variance where the regime allows it."""
    rates = effective_rates(params)
    head = (rates.omega_eff_ratio, rates.gamma_eff_ratio, rates.q_eff)
    var = _closed_form(approx_variance, params)
    if var is None:
        return head
    dec = _closed_form(decompose, params)
    f_eta = (None, None) if dec is None else (dec.f, dec.eta)
    return head + f_eta + (var.dq2, var.n_t_f, regime_validity(params).adiabatic_ok)


def _steady_table(cfg: RunConfig):
    steady = solve_steady_state(cfg.phi_c, cfg.drive)
    columns = (
        ("u", "dimensionless"), ("phi", "dimensionless"),
        ("stable", "bool"), ("marginal", "bool"),
    )
    return columns, [(br.u, br.phi_eff, br.stable, br.marginal) for br in steady.branches]


def _spectrum_table(cfg: RunConfig):
    grid = _grid(cfg.omega_start, cfg.omega_stop, cfg.omega_points)
    columns = (("omega", "Omega_m"), ("s_q", "dimensionless"), ("stable", "bool"))
    try:
        s = noise_spectrum(grid, cfg.params, cfg.noise_model)
    except Unstable:
        return columns, [(w, None, False) for w in grid.tolist()]
    return columns, [(w, v, True) for w, v in zip(grid.tolist(), s.tolist())]


def _dynamics_table(cfg: RunConfig):
    traj = evolve_covariance(build_system(cfg.params), t_end=cfg.t_end, n_samples=cfg.samples)
    track = output_variance_track(traj)
    columns = (
        ("t", "1/Gamma"), ("dq2", "dimensionless"), ("dp2", "dimensionless"),
        ("dx2", "dimensionless"), ("dy2", "dimensionless"),
        ("c_x", "kappa"), ("c_y", "kappa"), ("stable", "bool"),
    )
    diagonal = traj.v.diagonal(axis1=1, axis2=2).T.tolist()  # dq2, dp2, dx2, dy2
    return columns, list(zip(traj.t.tolist(), *diagonal, *track.T.tolist(), [True] * len(traj)))


def _default_lo_rate(params: NormalizedParams) -> float:
    """The closed-form Gamma_eff/Gamma, read only where ``homodyne.lo_rate`` is unset."""
    try:
        lo_rate = effective_rates(params).gamma_eff_ratio  # finite, or it raises
        if not lo_rate > 0.0:
            raise InvalidParams(f"Gamma_eff/Gamma = {lo_rate}")
    except (ImaginaryFrequency, InvalidParams) as exc:
        raise InvalidRegime(f"set homodyne.lo_rate: no closed-form rate > 0 ({exc})") from None
    return lo_rate


def _homodyne_table(cfg: RunConfig):
    sys_ = build_system(cfg.params)
    lo_rate = cfg.lo_rate if cfg.lo_rate is not None else _default_lo_rate(cfg.params)
    res = homodyne_readout(sys_, None, cfg.homodyne_quadrature, lo_rate, cfg.demod_rate)
    columns = (
        ("dx_m2", "shot"), ("lo_rate", "Gamma"), ("window", "1/lo_rate"),
        ("quadrature", "name"), ("demod_rate", "Gamma"), ("stable", "bool"),
    )
    return columns, [(res.dx_m2, res.lo_rate, res.window, cfg.homodyne_quadrature,
                      res.demod_rate, True)]


def _optimize_table(cfg: RunConfig):
    p = cfg.params
    b_range = [p.b] if cfg.sweep is None else [float(v) for v in cfg.sweep.values()]
    opt = optimize_operating_point(
        b_range, p.phi_nl, p.q_factor, p.n_t_i,
        noise_model=cfg.noise_model, omega_max=cfg.omega_max,
        lock_phi_to_b=cfg.lock_phi_to_b,
    )
    columns = (
        ("b_opt", "dimensionless"), ("phi_opt", "dimensionless"),
        ("n_t_f_min", "dimensionless"), ("stable", "bool"),
    )
    return columns, [(opt.b_opt, opt.phi_opt, opt.n_t_f_min, True)]


def _reads(*groups: str) -> frozenset:
    """The keys a mode reads: ``output_path`` and the named groups.

    A group is ``"point"`` (the operating point, normalized or physical),
    ``"normalized"`` (its normalized keys alone), ``"prefix.*"`` (every
    key under the prefix) or a single key.
    """
    keys = {"output_path"}
    for group in groups:
        if group == "point":
            keys |= _POINT
        elif group == "normalized":
            keys |= _NORMALIZED
        elif group.endswith(".*"):
            keys |= {k for k in KEYS if k.startswith(group[:-1])}
        else:
            keys.add(group)
    return frozenset(keys)


class Mode(NamedTuple):
    """One CLI mode.

    ``table(cfg)`` returns the (columns, rows) of its result; ``reads``
    holds the config keys its table depends on, and every other key is
    rejected; a mode that reads the normalized keys requires an operating
    point.
    ``sweeps`` are the variables a sweep may run over; ``noise`` is the
    default ``noise_model``; ``preset`` is config text the user's keys
    override.
    """

    table: Callable
    reads: frozenset
    sweeps: tuple = SWEEPABLE
    noise: str = "markov_flat"
    preset: dict = {}


_VARIANCES = (("dq2", "dimensionless"), ("dp2", "dimensionless"), ("n_t_f", "dimensionless"))
_FIGURE_POINT = {"q_factor": "1e4", "n_t_i": "100", "phi_nl": "0.1", "b": "10", "phi": "10"}
_PHI_STAR = optimal_detuning(10.0)
_SWEEPING = ("sweep.*", "lock_phi_to_b")
_INTEGRATING = (*_SWEEPING, "noise_model", "tolerances.*")

# flat bath for the cross-check modes, coth for the spectral figure presets;
# the presets fix the normalized point, so they read no physical.* key
MODES = {
    "steady": Mode(_steady_table, _reads("steady.*")),
    "spectrum": Mode(_spectrum_table, _reads("point", "noise_model", "spectrum.*")),
    "variances": Mode(
        _sweep_table(_VARIANCES + (("quadrature_error", "dimensionless"),), _variances_rows),
        _reads("point", *_INTEGRATING),
    ),
    "adiabatic": Mode(_sweep_table((
        ("omega_eff_ratio", "dimensionless"), ("gamma_eff_ratio", "dimensionless"),
        ("q_eff", "dimensionless"), ("f", "dimensionless"), ("eta", "dimensionless"),
        ("dq2", "dimensionless"), ("n_t_f", "dimensionless"), ("adiabatic_ok", "bool"),
    ), _adiabatic_rows), _reads("point", *_SWEEPING)),
    "optimize": Mode(_optimize_table, _reads("point", *_INTEGRATING), ("b",)),
    "dynamics": Mode(_dynamics_table, _reads("point", "dynamics.*")),
    "homodyne": Mode(_homodyne_table, _reads("point", "homodyne.*")),
    "fig1": Mode(
        _sweep_table(_VARIANCES, partial(_variances_rows, width=3)),
        _reads("normalized", *_INTEGRATING),
        noise="quantum_coth",
        preset={
            **_FIGURE_POINT, "b": "5", "phi": "5", "lock_phi_to_b": "true",
            "sweep.variable": "b", "sweep.start": "1", "sweep.stop": "10",
            "sweep.points": "19", "sweep.spacing": "linear",
        },
    ),
    "fig2": Mode(
        _sweep_table(
            (("dq2_exact", "dimensionless"), ("dq2_adiabatic", "dimensionless")), _fig2_rows,
        ),
        _reads("normalized", *_SWEEPING, "noise_model"), noise="quantum_coth",
        preset={
            **_FIGURE_POINT, "sweep.variable": "phi",
            "sweep.start": repr(0.5 * _PHI_STAR), "sweep.stop": repr(2.0 * _PHI_STAR),
            "sweep.points": "61", "sweep.spacing": "linear",
        },
    ),
    "fig3": Mode(_dynamics_table, _reads("normalized", "dynamics.*"), preset={
        **_FIGURE_POINT, "dynamics.t_end": "0.02", "dynamics.samples": "401",
    }),
}


def _metadata(cfg: RunConfig) -> list:
    meta = [("generator", f"optocool {__version__}"), ("mode", cfg.mode)]
    for key in sorted(cfg.raw):
        meta.append((key, cfg.raw[key]))
    return meta


def run(config: RunConfig) -> ResultTable:
    """Build the result table of a validated RunConfig with its mode's builder."""
    columns, rows = MODES[config.mode].table(config)
    return ResultTable(columns=columns, rows=rows, metadata=_metadata(config))

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


#: the cell types a column may hold to be formatted by one ``%.12g`` template
_FLOAT_TYPES = frozenset((float, np.float64))


def _fmt_column(values) -> list[str]:
    """``_fmt`` of each cell, in one pass: a float (np.float64 is one) formatted in place."""
    return ["%.12g" % v if isinstance(v, float) else _fmt(v) for v in values]


def emit_csv(table: ResultTable, path: str | None) -> None:
    """Write a result table as CSV with '#' metadata lines.

    Formatting is pinned (12 significant digits, fixed newline) so equal
    inputs produce byte-identical files; ``path=None`` writes to stdout.
    The data block is one ``%`` template per row: ``%.12g`` for a column
    whose cells are all float or np.float64, ``%s`` over
    :func:`_fmt_column`'s strings for any other (which formats a float
    cell the same way).
    """
    lines = [f"# {k} = {v}" for k, v in table.metadata]
    lines.append(",".join(f"{name} [{unit}]" for name, unit in table.columns))
    formats, columns = [], []
    for values in zip(*table.rows):
        if _FLOAT_TYPES.issuperset(map(type, values)):
            formats.append("%.12g")
            columns.append(values)
        else:
            formats.append("%s")
            columns.append(_fmt_column(values))
    lines.extend(map(",".join(formats).__mod__, zip(*columns)))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _error_record(kind: str, exc: Exception) -> str:
    payload = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ValidationError):
        payload["violations"] = exc.violations
    return json.dumps(payload, sort_keys=True)


USAGE = "usage: optocool <mode> [--config FILE] [--out FILE] [--set KEY=VALUE]..."


class _Argv(NamedTuple):
    mode: str | None
    config: str | None
    out: str | None
    overrides: dict
    help: bool


def _parse_argv(argv: list) -> _Argv:
    """Read ``<mode> [--config FILE] [--out FILE] [--set KEY=VALUE]...``.

    The first token is the mode unless it starts with ``-``; whether the
    mode exists is for :func:`parse_config` to decide. A flag takes the
    next token or its ``--flag=value`` suffix; a repeated ``--config``
    or ``--out`` keeps its last value. Raises :class:`ParseError` on an
    unknown flag, a flag without a value, a stray positional or a
    ``--set`` item without ``=``.
    """
    mode = argv[0] if argv and not argv[0].startswith("-") else None
    paths, overrides = {"--config": None, "--out": None}, {}
    tokens = iter(argv if mode is None else argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return _Argv(mode, None, None, {}, True)
        flag, eq, value = token.partition("=")
        if flag != "--set" and flag not in paths:
            if token.startswith("-"):
                raise ParseError(f"unknown option {flag!r}")
            raise ParseError(f"unexpected argument {token!r}")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                raise ParseError(f"{flag} needs a value")
        if flag in paths:
            paths[flag] = value
        elif "=" not in value:
            raise ParseError(f"--set needs KEY=VALUE, got {value!r}")
        else:
            key, _, value = value.partition("=")
            overrides[key.strip()] = value.strip()
    return _Argv(mode, paths["--config"], paths["--out"], overrides, False)


def main(argv=None) -> int:
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else list(argv))
    except ParseError as exc:
        print(_error_record("config", exc), file=sys.stderr)
        return 2
    if args.help:
        print(USAGE)
        print("modes: " + ", ".join(MODES))
        return 0

    text = ""
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(_error_record("config", exc), file=sys.stderr)
            return 2

    try:
        cfg = parse_config(text, mode=args.mode, overrides=args.overrides)
    except (ParseError, ValidationError) as exc:
        print(_error_record("config", exc), file=sys.stderr)
        return 2

    try:
        table = run(cfg)
        emit_csv(table, args.out or cfg.output_path)
    except OptocoolError as exc:
        print(_error_record("runtime", exc), file=sys.stderr)
        return 3
    except OSError as exc:
        print(_error_record("io", exc), file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
