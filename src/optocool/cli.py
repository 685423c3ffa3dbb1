"""Command-line front end: config parsing, sweeps, deterministic CSV.

Configuration documents are flat key = value text: one key per line,
``#`` comments, nested fields dot-separated (``sweep.variable = phi``).
Modes ``fig1``/``fig2``/``fig3`` are presets for the standard cooling
curves (variances versus bandwidth, variances versus detuning, and the
cooling transient with its output-field record); they never require SI
input. Identical config and package version produce byte-identical CSV.

Invocation::

    optocool <mode> [--config FILE] [--out FILE] [--set key=value ...]

Exit codes: 0 success, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

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
    homodyne_variance,
    matched_filter_pairs,
    output_variance_track,
    two_time_correlations,
)
from .errors import (
    ImaginaryFrequency,
    InvalidParams,
    InvalidRegime,
    NoStableBranch,
    OptocoolError,
    ParseError,
    QuadratureFailure,
    SingularResponse,
    Unstable,
    ValidationError,
)
from .model import NormalizedParams, PhysicalParams, normalize, solve_steady_state
from .spectra import (
    ThermalNoiseModel,
    _effective_peak,
    _spectrum_values,
    _static_margins,
    integrate_variances,
)

MODES = (
    "steady", "spectrum", "variances", "adiabatic", "optimize",
    "dynamics", "homodyne", "fig1", "fig2", "fig3",
)
SWEEPABLE = ("b", "phi", "phi_nl", "q_factor", "n_t_i")

_ROW_ERRORS = (
    Unstable, QuadratureFailure, SingularResponse, InvalidParams,
    ImaginaryFrequency, InvalidRegime, NoStableBranch,
)

_FLOAT_KEYS = {
    "b", "phi", "phi_nl", "q_factor", "n_t_i",
    "sweep.start", "sweep.stop",
    "tolerances.quadrature_rel", "tolerances.omega_max",
    "steady.phi_c", "steady.drive",
    "spectrum.omega_start", "spectrum.omega_stop",
    "dynamics.t_end",
    "homodyne.window", "homodyne.lo_rate", "homodyne.demod_rate",
    "physical.omega_m", "physical.kappa", "physical.gamma", "physical.mass",
    "physical.cavity_length", "physical.omega_c", "physical.delta_c",
    "physical.drive_intensity", "physical.temperature",
}
_INT_KEYS = {
    "sweep.points", "spectrum.omega_points", "dynamics.samples",
    "homodyne.n_outer", "homodyne.n_inner", "optimize.b_points",
}
_STR_KEYS = {
    "mode", "sweep.variable", "sweep.spacing", "noise_model", "output_path",
    "homodyne.quadrature",
}
_BOOL_KEYS = {"lock_phi_to_b"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS | _BOOL_KEYS

_PHYSICAL_FIELDS = (
    "omega_m", "kappa", "gamma", "mass", "cavity_length", "omega_c",
    "delta_c", "drive_intensity", "temperature",
)


@dataclass
class SweepSpec:
    variable: str
    start: float
    stop: float
    points: int
    spacing: str = "linear"

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass
class RunConfig:
    mode: str
    params: NormalizedParams | None = None
    sweep: SweepSpec | None = None
    noise_model: ThermalNoiseModel = ThermalNoiseModel.QUANTUM_COTH
    quadrature_rel: float = 1e-8
    omega_max: float = 100.0
    output_path: str | None = None
    lock_phi_to_b: bool = False
    phi_c: float | None = None
    drive: float | None = None
    omega_start: float = -2.0
    omega_stop: float = 2.0
    omega_points: int = 801
    t_end: float | None = None
    samples: int = 401
    window: float = 12.0
    lo_rate: float | None = None
    demod_rate: float | None = None
    homodyne_quadrature: str = "x_out"
    n_outer: int = 64
    n_inner: int = 32
    b_points: int = 9
    raw: dict = field(default_factory=dict)


@dataclass
class ResultTable:
    columns: tuple            # ((name, unit), ...)
    rows: list                # tuples aligned with columns; None = empty field
    metadata: list            # ordered (key, value) pairs


def _parse_kv(text: str) -> dict:
    """Syntax layer: flat key = value lines, '#' comments."""
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


def _preset_defaults(mode: str) -> dict:
    if mode == "fig1":
        return {
            "q_factor": "1e4", "n_t_i": "100", "phi_nl": "0.1",
            "b": "5", "phi": "5", "lock_phi_to_b": "true",
            "sweep.variable": "b", "sweep.start": "1", "sweep.stop": "10",
            "sweep.points": "19", "sweep.spacing": "linear",
        }
    if mode == "fig2":
        phi_star = optimal_detuning(10.0)
        return {
            "q_factor": "1e4", "n_t_i": "100", "phi_nl": "0.1",
            "b": "10", "phi": "10",
            "sweep.variable": "phi",
            "sweep.start": repr(0.5 * phi_star),
            "sweep.stop": repr(2.0 * phi_star),
            "sweep.points": "61", "sweep.spacing": "linear",
        }
    if mode == "fig3":
        return {
            "q_factor": "1e4", "n_t_i": "100", "phi_nl": "0.1",
            "b": "10", "phi": "10",
            "dynamics.t_end": "0.02", "dynamics.samples": "401",
        }
    return {}


def _convert(key: str, value: str, violations: list):
    try:
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _INT_KEYS:
            return int(value)
        if key in _BOOL_KEYS:
            low = value.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(value)
    except ValueError:
        violations.append(f"{key}: cannot interpret {value!r}")
        return None
    return value


def parse_config(
    text: str,
    mode: str | None = None,
    overrides: dict | None = None,
) -> RunConfig:
    """Parse and validate a configuration document into a RunConfig.

    ``mode`` (the CLI subcommand) takes precedence over a ``mode`` key in
    the document; ``overrides`` are applied on top of the document.
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
    merged = _preset_defaults(mode)
    merged.update(raw)
    merged.pop("mode", None)

    for key in sorted(merged):
        if key not in _ALL_KEYS:
            violations.append(f"{key}: unknown key")

    vals = {}
    for key, sval in merged.items():
        if key in _ALL_KEYS:
            vals[key] = _convert(key, sval, violations)

    cfg = RunConfig(mode=mode, raw=dict(merged))

    # normalized / physical parameter point
    phys_keys = [k for k in vals if k.startswith("physical.")]
    norm_keys = [k for k in vals if k in ("b", "phi", "phi_nl", "q_factor", "n_t_i")]
    if phys_keys and norm_keys:
        violations.append(
            "params: give either normalized (b, phi, ...) or physical.* keys, not both"
        )
    elif phys_keys:
        missing = [f for f in _PHYSICAL_FIELDS if f"physical.{f}" not in vals]
        if missing:
            violations.append(f"physical: missing fields {', '.join(missing)}")
        else:
            try:
                p = PhysicalParams(**{f: vals[f"physical.{f}"] for f in _PHYSICAL_FIELDS})
                cfg.params = normalize(p)
            except (InvalidParams, NoStableBranch) as exc:
                violations.append(f"physical: {exc}")
    elif norm_keys:
        pv = {k: vals.get(k) for k in ("b", "phi", "phi_nl", "q_factor", "n_t_i")}
        missing = [k for k, v in pv.items() if v is None]
        if missing:
            violations.append(f"params: missing fields {', '.join(missing)}")
        else:
            if not pv["b"] > 0:
                violations.append(f"b: must be > 0, got {pv['b']}")
            if not pv["phi_nl"] >= 0:
                violations.append(f"phi_nl: must be >= 0, got {pv['phi_nl']}")
            if not pv["q_factor"] > 1:
                violations.append(f"q_factor: must be > 1, got {pv['q_factor']}")
            if not pv["n_t_i"] >= 0:
                violations.append(f"n_t_i: must be >= 0, got {pv['n_t_i']}")
            if not violations:
                cfg.params = NormalizedParams(**pv)
    if cfg.params is None and mode not in ("steady",):
        violations.append("params: an operating point is required for this mode")

    # sweep
    sweep_keys = [k for k in vals if k.startswith("sweep.")]
    if sweep_keys:
        var = vals.get("sweep.variable")
        if var not in SWEEPABLE:
            violations.append(
                f"sweep.variable: must be one of {', '.join(SWEEPABLE)}, got {var!r}"
            )
        start, stop = vals.get("sweep.start"), vals.get("sweep.stop")
        points = vals.get("sweep.points")
        spacing = vals.get("sweep.spacing", "linear")
        if start is None or stop is None or points is None:
            violations.append("sweep: needs variable, start, stop and points")
        else:
            if points < 2:
                violations.append(f"sweep.points: must be >= 2, got {points}")
            if spacing not in ("linear", "log"):
                violations.append(f"sweep.spacing: must be linear or log, got {spacing!r}")
            if spacing == "log" and start <= 0:
                violations.append("sweep.spacing: log spacing requires start > 0")
        if not any(v.startswith("sweep") for v in violations):
            cfg.sweep = SweepSpec(variable=var, start=start, stop=stop,
                                  points=points, spacing=spacing)

    # noise model: flat bath for cross-check modes, coth for figure modes
    nm = vals.get("noise_model")
    if nm is None:
        cfg.noise_model = (
            ThermalNoiseModel.QUANTUM_COTH
            if mode in ("fig1", "fig2", "fig3")
            else ThermalNoiseModel.MARKOV_FLAT
        )
    else:
        try:
            cfg.noise_model = ThermalNoiseModel(nm)
        except ValueError:
            violations.append(
                f"noise_model: must be quantum_coth or markov_flat, got {nm!r}"
            )

    # tolerances and mode extras
    simple = {
        "tolerances.quadrature_rel": "quadrature_rel",
        "tolerances.omega_max": "omega_max",
        "output_path": "output_path",
        "lock_phi_to_b": "lock_phi_to_b",
        "steady.phi_c": "phi_c",
        "steady.drive": "drive",
        "spectrum.omega_start": "omega_start",
        "spectrum.omega_stop": "omega_stop",
        "spectrum.omega_points": "omega_points",
        "dynamics.t_end": "t_end",
        "dynamics.samples": "samples",
        "homodyne.window": "window",
        "homodyne.lo_rate": "lo_rate",
        "homodyne.demod_rate": "demod_rate",
        "homodyne.quadrature": "homodyne_quadrature",
        "homodyne.n_outer": "n_outer",
        "homodyne.n_inner": "n_inner",
        "optimize.b_points": "b_points",
    }
    for key, attr in simple.items():
        if key in vals and vals[key] is not None:
            setattr(cfg, attr, vals[key])

    if cfg.quadrature_rel <= 0:
        violations.append("tolerances.quadrature_rel: must be > 0")
    if not cfg.omega_max > 2:
        violations.append(f"tolerances.omega_max: must be > 2, got {cfg.omega_max}")
    if mode == "steady":
        if cfg.phi_c is None or cfg.drive is None:
            violations.append("steady: needs steady.phi_c and steady.drive")
        elif cfg.drive < 0:
            violations.append(f"steady.drive: must be >= 0, got {cfg.drive}")
    if mode == "spectrum" and cfg.omega_points < 2:
        violations.append(f"spectrum.omega_points: must be >= 2, got {cfg.omega_points}")
    if cfg.homodyne_quadrature not in ("x_out", "y_out"):
        violations.append(
            f"homodyne.quadrature: must be x_out or y_out, got {cfg.homodyne_quadrature!r}"
        )

    if violations:
        raise ValidationError(violations)
    return cfg


def _is_stable_point(params: NormalizedParams) -> bool:
    phip, spring = _static_margins(params)
    if phip <= 0 or spring <= 0:
        return False
    _, gamma_ratio = _effective_peak(
        params.b, params.phi, params.phi_nl, params.q_factor
    )
    return gamma_ratio > 0


def _sweep_points(cfg: RunConfig):
    """Yield (label, params-or-None) rows; None params marks an invalid point."""
    if cfg.sweep is None:
        yield None, cfg.params
        return
    for value in cfg.sweep.values():
        fields = {cfg.sweep.variable: float(value)}
        if cfg.lock_phi_to_b and cfg.sweep.variable == "b":
            fields["phi"] = float(value)
        try:
            yield float(value), cfg.params.replace(**fields)
        except InvalidParams:
            yield float(value), None


def _run_steady(cfg: RunConfig) -> ResultTable:
    steady = solve_steady_state(cfg.phi_c, cfg.drive)
    cols = (
        ("u", "dimensionless"), ("phi", "dimensionless"),
        ("stable", "bool"), ("marginal", "bool"),
    )
    rows = [(br.u, br.phi_eff, br.stable, br.marginal) for br in steady.branches]
    return ResultTable(columns=cols, rows=rows, metadata=_metadata(cfg))


def _run_spectrum(cfg: RunConfig) -> ResultTable:
    grid = np.linspace(cfg.omega_start, cfg.omega_stop, cfg.omega_points)
    cols = (("omega", "Omega_m"), ("s_q", "dimensionless"), ("stable", "bool"))
    stable = _is_stable_point(cfg.params)
    if stable:
        s = _spectrum_values(grid, cfg.params, cfg.noise_model)
        rows = [(float(w), float(v), True) for w, v in zip(grid, s)]
    else:
        rows = [(float(w), None, False) for w in grid]
    return ResultTable(columns=cols, rows=rows, metadata=_metadata(cfg))


def _run_variances(cfg: RunConfig, figure: bool = False) -> ResultTable:
    cols = []
    if cfg.sweep is not None:
        cols.append((cfg.sweep.variable, "dimensionless"))
    cols += [("dq2", "dimensionless"), ("dp2", "dimensionless"),
             ("n_t_f", "dimensionless")]
    if not figure:
        cols.append(("quadrature_error", "dimensionless"))
    cols.append(("stable", "bool"))
    rows = []
    for label, params in _sweep_points(cfg):
        prefix = () if label is None else (label,)
        width = 3 if figure else 4
        if params is None:
            rows.append(prefix + (None,) * width + (False,))
            continue
        try:
            res = integrate_variances(
                params, cfg.noise_model,
                omega_max=cfg.omega_max, rtol=cfg.quadrature_rel,
            )
        except _ROW_ERRORS:
            rows.append(prefix + (None,) * width + (False,))
            continue
        body = (res.dq2, res.dp2, res.n_t_f)
        if not figure:
            body += (res.quadrature_error,)
        rows.append(prefix + body + (True,))
    return ResultTable(columns=tuple(cols), rows=rows, metadata=_metadata(cfg))


def _run_adiabatic(cfg: RunConfig) -> ResultTable:
    cols = []
    if cfg.sweep is not None:
        cols.append((cfg.sweep.variable, "dimensionless"))
    cols += [
        ("omega_eff_ratio", "dimensionless"), ("gamma_eff_ratio", "dimensionless"),
        ("q_eff", "dimensionless"), ("f", "dimensionless"), ("eta", "dimensionless"),
        ("dq2", "dimensionless"), ("n_t_f", "dimensionless"),
        ("adiabatic_ok", "bool"), ("stable", "bool"),
    ]
    rows = []
    for label, params in _sweep_points(cfg):
        prefix = () if label is None else (label,)
        if params is None:
            rows.append(prefix + (None,) * 8 + (False,))
            continue
        try:
            rates = effective_rates(params)
        except ImaginaryFrequency:
            rows.append(prefix + (None,) * 8 + (False,))
            continue
        try:
            var = approx_variance(params)
        except (Unstable, ImaginaryFrequency):
            rows.append(
                prefix
                + (rates.omega_eff_ratio, rates.gamma_eff_ratio, rates.q_eff)
                + (None,) * 5 + (False,)
            )
            continue
        if params.phi > 0:
            dec = decompose(params)
            f_val, eta = dec.f, dec.eta
        else:
            f_val = eta = None
        ok = regime_validity(params).adiabatic_ok
        rows.append(
            prefix
            + (rates.omega_eff_ratio, rates.gamma_eff_ratio, rates.q_eff,
               f_val, eta, var.dq2, var.n_t_f, ok, True)
        )
    return ResultTable(columns=tuple(cols), rows=rows, metadata=_metadata(cfg))


def _run_fig2(cfg: RunConfig) -> ResultTable:
    from .adiabatic import approx_variance

    cols = (
        ("phi", "dimensionless"), ("dq2_exact", "dimensionless"),
        ("dq2_adiabatic", "dimensionless"), ("stable", "bool"),
    )
    rows = []
    for label, params in _sweep_points(cfg):
        if params is None:
            rows.append((label, None, None, False))
            continue
        try:
            exact = integrate_variances(
                params, cfg.noise_model,
                omega_max=cfg.omega_max, rtol=cfg.quadrature_rel,
            )
            approx = approx_variance(params)
        except _ROW_ERRORS:
            rows.append((label, None, None, False))
            continue
        rows.append((label, exact.dq2, approx.dq2, True))
    return ResultTable(columns=cols, rows=rows, metadata=_metadata(cfg))


def _default_t_end(sys_) -> float:
    """20 lifetimes of the slowest drift mode, in 1/Gamma units.

    The covariance relaxes at twice the slowest eigenvalue's decay rate;
    this holds outside the adiabatic regime too, where the closed-form
    Gamma_eff would end the window before relaxation.
    """
    slowest = float(np.max(np.linalg.eigvals(sys_.drift).real))
    return 20.0 / (2.0 * abs(slowest) * sys_.params.q_factor)


def _run_dynamics(cfg: RunConfig) -> ResultTable:
    sys_ = build_system(cfg.params)
    t_end = cfg.t_end if cfg.t_end is not None else _default_t_end(sys_)
    traj = evolve_covariance(sys_, t_end=t_end, n_samples=cfg.samples)
    track = output_variance_track(sys_, traj)
    cols = (
        ("t", "1/Gamma"), ("dq2", "dimensionless"), ("dp2", "dimensionless"),
        ("dx2", "dimensionless"), ("dy2", "dimensionless"),
        ("c_x", "kappa"), ("c_y", "kappa"), ("stable", "bool"),
    )
    rows = [
        (s.t, s.v[0, 0], s.v[1, 1], s.v[2, 2], s.v[3, 3],
         track[i, 0], track[i, 1], True)
        for i, s in enumerate(traj)
    ]
    return ResultTable(columns=cols, rows=rows, metadata=_metadata(cfg))


def _run_homodyne(cfg: RunConfig) -> ResultTable:
    params = cfg.params
    sys_ = build_system(params)
    rates = effective_rates(params)
    lo_rate = cfg.lo_rate if cfg.lo_rate is not None else rates.gamma_eff_ratio
    demod = (
        cfg.demod_rate
        if cfg.demod_rate is not None
        else params.phi * params.q_factor / params.b
    )
    window = cfg.window / lo_rate  # 1/Gamma units
    traj = evolve_covariance(sys_, t_end=window, n_samples=cfg.samples)
    pairs, weights = matched_filter_pairs(window, cfg.n_outer, cfg.n_inner)
    grid = two_time_correlations(
        sys_, traj, cfg.homodyne_quadrature, pairs,
        demod_rate=demod, weights=weights,
    )
    res = homodyne_variance(grid, lo_rate)
    cols = (
        ("dx_m2", "shot"), ("lo_rate", "Gamma"), ("window", "1/lo_rate"),
        ("quadrature", "name"), ("demod_rate", "Gamma"), ("stable", "bool"),
    )
    rows = [(res.dx_m2, res.lo_rate, res.window, cfg.homodyne_quadrature, demod, True)]
    return ResultTable(columns=cols, rows=rows, metadata=_metadata(cfg))


def _run_optimize(cfg: RunConfig) -> ResultTable:
    p = cfg.params
    if cfg.sweep is not None and cfg.sweep.variable == "b":
        b_range = [float(v) for v in cfg.sweep.values()]
    else:
        b_range = [p.b]
    opt = optimize_operating_point(
        b_range, p.phi_nl, p.q_factor, p.n_t_i,
        noise_model=cfg.noise_model, omega_max=cfg.omega_max,
        b_points=cfg.b_points, lock_phi_to_b=cfg.lock_phi_to_b,
    )
    cols = (
        ("b_opt", "dimensionless"), ("phi_opt", "dimensionless"),
        ("n_t_f_min", "dimensionless"), ("stable", "bool"),
    )
    return ResultTable(
        columns=cols,
        rows=[(opt.b_opt, opt.phi_opt, opt.n_t_f_min, True)],
        metadata=_metadata(cfg),
    )


def _metadata(cfg: RunConfig) -> list:
    meta = [("generator", f"optocool {__version__}"), ("mode", cfg.mode)]
    for key in sorted(cfg.raw):
        meta.append((key, cfg.raw[key]))
    return meta


def run(config: RunConfig) -> ResultTable:
    """Dispatch a validated RunConfig to its mode handler."""
    handlers = {
        "steady": _run_steady,
        "spectrum": _run_spectrum,
        "variances": _run_variances,
        "adiabatic": _run_adiabatic,
        "optimize": _run_optimize,
        "dynamics": _run_dynamics,
        "homodyne": _run_homodyne,
        "fig1": lambda c: _run_variances(c, figure=True),
        "fig2": _run_fig2,
        "fig3": _run_dynamics,
    }
    return handlers[config.mode](config)


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


def emit_csv(table: ResultTable, path: str | None) -> None:
    """Write a result table as CSV with '#' metadata lines.

    Formatting is pinned (12 significant digits, fixed newline) so equal
    inputs produce byte-identical files; ``path=None`` writes to stdout.
    """
    lines = [f"# {k} = {v}" for k, v in table.metadata]
    lines.append(",".join(f"{name} [{unit}]" for name, unit in table.columns))
    for row in table.rows:
        lines.append(",".join(_fmt(v) for v in row))
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="optocool",
        description="Steady-state and dynamical radiation-pressure cooling curves.",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--out", help="output CSV path (default: config output_path or stdout)")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    args = parser.parse_args(argv)

    text = ""
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(_error_record("config", exc), file=sys.stderr)
            return 2

    overrides = {}
    for item in args.set:
        if "=" not in item:
            print(
                _error_record("config", ParseError(f"--set needs KEY=VALUE, got {item!r}")),
                file=sys.stderr,
            )
            return 2
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()

    try:
        cfg = parse_config(text, mode=args.mode, overrides=overrides)
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
