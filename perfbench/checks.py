"""Output checks for benchmark jobs.

``check(job, outcome)`` returns None when the job did what it should and
a one-line reason otherwise. Valid jobs must exit 0 with nothing on
stderr and a CSV that passes the checks for their kind; error-path jobs
must exit 2 or 3 with exactly one JSON record on stderr and no CSV.

The library functions used as references are imported here, before any
tracer wraps them, and are only called while no tracer is installed.
"""

from __future__ import annotations

import functools
import json
import math
import os

import numpy as np

from optocool.dynamics import build_system, lyapunov_steady_state, steady_variances
from optocool.model import NormalizedParams
from optocool.spectra import ThermalNoiseModel, integrate_variances

from jobs import FIG3_POINT

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

#: Tolerances from the project's stated bounds: quadrature 1e-8 for
#: spectral results, keystone 1e-6 for the time-domain route.
RTOL_SPECTRAL = 1e-8
RTOL_DYNAMICS = 1e-6
#: Slack for the 12 significant digits the CSV keeps.
RTOL_CSV = 1e-10

PARAM_KEYS = ("b", "phi", "phi_nl", "q_factor", "n_t_i")


class CheckFailed(Exception):
    pass


def _close(x, ref, rtol) -> bool:
    return abs(x - ref) <= rtol * max(abs(ref), 1.0)


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _value(text):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def split_csv(text: str):
    """Column names and raw field lists of an optocool CSV, metadata dropped."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    _require(lines, "empty CSV")
    names = [col.split(" [", 1)[0] for col in lines[0].split(",")]
    rows = [ln.split(",") for ln in lines[1:]]
    for fields in rows:
        _require(len(fields) == len(names), f"row has {len(fields)} fields, header {len(names)}")
    return names, rows


def parse_csv(text: str):
    """Column names and typed rows (dicts) of an optocool CSV."""
    names, rows = split_csv(text)
    return names, [dict(zip(names, map(_value, fields))) for fields in rows]


@functools.cache
def _references():
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _params(settings, **override):
    values = {k: float(settings[k]) for k in PARAM_KEYS}
    values.update(override)
    return NormalizedParams(**values)


def _sweep_values(settings):
    if "sweep.variable" not in settings:
        return None, [None]
    grid = np.linspace(float(settings["sweep.start"]), float(settings["sweep.stop"]),
                       int(settings["sweep.points"]))
    return settings["sweep.variable"], [float(v) for v in grid]


def _stable_rows_finite(rows):
    for i, row in enumerate(rows):
        if row.get("stable") is True:
            for key, val in row.items():
                _require(not (isinstance(val, float) and not math.isfinite(val)),
                         f"row {i}: {key} = {val} in a stable row")


def _check_sweep_labels(settings, rows):
    var, grid = _sweep_values(settings)
    _require(len(rows) == len(grid), f"{len(rows)} rows for {len(grid)} sweep points")
    if var is not None:
        for row, v in zip(rows, grid):
            _require(_close(row[var], v, RTOL_CSV), f"sweep label {row[var]} != {v}")
    return var, grid


def _check_variances_flat(job, rows):
    """Flat-bath rows must equal the Lyapunov steady state of the same point."""
    settings = job.spec["settings"]
    var, grid = _check_sweep_labels(settings, rows)
    for row, v in zip(rows, grid):
        if row["stable"] is not True:
            continue
        p = _params(settings, **({var: v} if var else {}))
        lyap = steady_variances(build_system(p))
        for key, ref in (("dq2", lyap.dq2), ("dp2", lyap.dp2)):
            _require(_close(row[key], ref, RTOL_DYNAMICS),
                     f"{key} {row[key]!r} vs Lyapunov {ref!r} at {var}={v}")


def _check_variances_coth(job, rows):
    _check_sweep_labels(job.spec["settings"], rows)
    for row in rows:
        if row["stable"] is True:
            _require(row["dq2"] * row["dp2"] >= 1.0 - RTOL_CSV,
                     f"dq2*dp2 = {row['dq2'] * row['dp2']} < 1")
            _require(_close(row["n_t_f"], (row["dq2"] + row["dp2"] - 2.0) / 4.0, RTOL_CSV),
                     "n_t_f inconsistent with dq2, dp2")


def _check_adiabatic(job, rows):
    settings = job.spec["settings"]
    if "b" in settings:
        _check_sweep_labels(settings, rows)
    _require(rows, "no rows")
    for row in rows:
        if row["stable"] is True:
            _require(row["gamma_eff_ratio"] > 0, "stable row with gamma_eff_ratio <= 0")
            _require(_close(row["n_t_f"], (row["dq2"] - 1.0) / 2.0, RTOL_CSV),
                     "n_t_f inconsistent with dq2")


def _check_transient(params, rows):
    """Uncertainty bound on every row, Lyapunov steady state on the last."""
    _require(len(rows) >= 2, "transient has fewer than two rows")
    for row in rows:
        _require(row["stable"] is True, f"row at t={row['t']} not stable")
        _require(row["dq2"] * row["dp2"] >= 1.0 - RTOL_CSV,
                 f"dq2*dp2 = {row['dq2'] * row['dp2']} < 1 at t={row['t']}")
    v = lyapunov_steady_state(build_system(params)).v
    last = rows[-1]
    for i, key in enumerate(("dq2", "dp2", "dx2", "dy2")):
        _require(_close(last[key], v[i, i], RTOL_DYNAMICS),
                 f"last {key} {last[key]!r} vs Lyapunov {v[i, i]!r}")


def _check_dynamics(job, rows):
    _check_transient(_params(job.spec["settings"]), rows)


def _check_fig3(job, rows):
    _check_transient(NormalizedParams(**FIG3_POINT), rows)


def _check_homodyne(job, rows):
    _require(len(rows) == 1, f"{len(rows)} rows")
    row = rows[0]
    _require(row["stable"] is True and row["dx_m2"] > 0 and row["lo_rate"] > 0,
             f"bad homodyne row {row}")


def _check_optimize(job, rows):
    settings = job.spec["settings"]
    _require(len(rows) == 1 and rows[0]["stable"] is True, "no optimum row")
    row = rows[0]
    _, grid = _sweep_values(settings)
    _require(any(_close(row["b_opt"], b, RTOL_CSV) for b in grid), f"b_opt {row['b_opt']} off grid")
    p = _params(settings, b=row["b_opt"], phi=row["phi_opt"])
    ref = integrate_variances(p, ThermalNoiseModel(settings["noise_model"])).n_t_f
    _require(_close(row["n_t_f_min"], ref, RTOL_SPECTRAL),
             f"n_t_f_min {row['n_t_f_min']!r} vs {ref!r} at the reported optimum")


def _check_steady(job, rows):
    settings = job.spec["settings"]
    phi_c, drive = float(settings["steady.phi_c"]), float(settings["steady.drive"])
    _require(rows, "no branches")
    for row in rows:
        u = row["u"]
        resid = u * (1.0 + (phi_c - u) ** 2) - drive
        _require(abs(resid) <= RTOL_SPECTRAL * max(1.0, drive, abs(phi_c) ** 3),
                 f"cubic residual {resid:.3e} at u={u}")
        _require(_close(row["phi"], phi_c - u, RTOL_CSV), "phi != phi_c - u")


def _check_spectrum(job, rows):
    settings = job.spec["settings"]
    _require(len(rows) == int(settings["spectrum.omega_points"]), "wrong number of rows")
    for row in rows:
        if row["stable"] is True:
            _require(row["s_q"] > 0, f"s_q {row['s_q']} <= 0")


def _check_reference(job, names, rows):
    ref = _references()[job.spec["ref"]]
    _require(names == ref["columns"], f"columns {names} != {ref['columns']}")
    _require(len(rows) == len(ref["rows"]), f"{len(rows)} rows, reference {len(ref['rows'])}")
    rtol = ref["rtol"]
    for row, ref_row in zip(rows, ref["rows"]):
        for name, want in zip(names, map(_value, ref_row)):
            got = row[name]
            if isinstance(want, float) and isinstance(got, float):
                _require(_close(got, want, rtol), f"{name} {got!r} vs reference {want!r}")
            else:
                _require(got == want, f"{name} {got!r} vs reference {want!r}")


_KIND_CHECKS = {
    "variances_markov_flat": _check_variances_flat,
    "variances_quantum_coth": _check_variances_coth,
    "adiabatic": _check_adiabatic,
    "dynamics": _check_dynamics,
    "fig3": _check_fig3,
    "homodyne": _check_homodyne,
    "optimize": _check_optimize,
    "steady": _check_steady,
    "spectrum": _check_spectrum,
    "physical": _check_adiabatic,
}


def _check_error(outcome):
    rc, out, err, exc = outcome
    _require(exc is None, f"exception escaped main: {exc}")
    _require(rc in (2, 3), f"exit code {rc}, expected 2 or 3")
    _require(out == "", "error path wrote output")
    lines = err.splitlines()
    _require(len(lines) == 1, f"{len(lines)} lines on stderr, expected one JSON record")
    try:
        record = json.loads(lines[0])
    except ValueError:
        raise CheckFailed("stderr is not a JSON record") from None
    _require(isinstance(record, dict) and "error" in record, "JSON record has no 'error' key")


def check(job, outcome):
    """None if ``outcome = (rc, stdout, stderr, exception)`` is right for ``job``."""
    rc, out, err, exc = outcome
    try:
        if not job.valid:
            _check_error(outcome)
            return None
        _require(exc is None, f"exception escaped main: {exc}")
        _require(rc == 0, f"exit code {rc}: {err.strip()[:200]}")
        _require(err == "", f"stderr not empty: {err.strip()[:200]}")
        names, rows = parse_csv(out)
        _stable_rows_finite(rows)
        if "ref" in job.spec:
            _check_reference(job, names, rows)
        if job.kind in _KIND_CHECKS:
            _KIND_CHECKS[job.kind](job, rows)
    except CheckFailed as exc_:
        return str(exc_)
    except Exception as exc_:  # a reference computation failed on this job's input
        return f"check raised {type(exc_).__name__}: {exc_}"
    return None
