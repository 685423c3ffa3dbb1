"""Spans around the calls into each optocool module, installed from outside.

The program carries no instrumentation of its own. ``Tracer.install``
replaces functions in the module namespaces their callers look them up
in (``optocool.cli.evolve_covariance``, ``optocool.adiabatic.
integrate_variances``, ``optocool.spectra.quad``, ...) by wrappers that
record a span, and ``Tracer.remove`` puts the originals back. The layer
of a span is the module that owns the function, so ``quad`` as called
by ``spectra`` is a ``spectra`` span.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "model", "spectra", "adiabatic", "dynamics")


def _quad_counts(args, kwargs, result):
    info = result[2]  # spectra always asks quad for full_output
    return {"neval": info["neval"], "subintervals": info["last"]}


def _ivp_counts(args, kwargs, result):
    return {"nfev": result.nfev}


def _pairs_counts(args, kwargs, result):
    return {"pairs": len(result.values)}


# (namespace, attribute, span name, counter). Each function is wrapped in
# every namespace a caller reads it from; both wrappers share one span name.
PATCHES = (
    ("optocool.cli", "parse_config", "cli.parse_config", None),
    ("optocool.cli", "run", "cli.run", None),
    ("optocool.cli", "emit_csv", "cli.emit_csv", None),
    ("optocool.cli", "normalize", "model.normalize", None),
    ("optocool.cli", "solve_steady_state", "model.solve_steady_state", None),
    ("optocool.model", "solve_steady_state", "model.solve_steady_state", None),
    ("optocool.cli", "integrate_variances", "spectra.integrate_variances", None),
    ("optocool.adiabatic", "integrate_variances", "spectra.integrate_variances", None),
    ("optocool.spectra", "quad", "spectra.quad", _quad_counts),
    ("optocool.cli", "_spectrum_values", "spectra._spectrum_values", None),
    ("optocool.cli", "_effective_peak", "spectra._effective_peak", None),
    ("optocool.cli", "_static_margins", "spectra._static_margins", None),
    ("optocool.cli", "optimize_operating_point", "adiabatic.optimize_operating_point", None),
    ("optocool.cli", "approx_variance", "adiabatic.approx_variance", None),
    ("optocool.adiabatic", "approx_variance", "adiabatic.approx_variance", None),
    ("optocool.cli", "effective_rates", "adiabatic.effective_rates", None),
    ("optocool.adiabatic", "effective_rates", "adiabatic.effective_rates", None),
    ("optocool.cli", "decompose", "adiabatic.decompose", None),
    ("optocool.cli", "regime_validity", "adiabatic.regime_validity", None),
    ("optocool.cli", "optimal_detuning", "adiabatic.optimal_detuning", None),
    ("optocool.cli", "build_system", "dynamics.build_system", None),
    ("optocool.cli", "evolve_covariance", "dynamics.evolve_covariance", None),
    ("optocool.dynamics", "solve_ivp", "dynamics.solve_ivp", _ivp_counts),
    ("optocool.dynamics", "physicality_defect", "dynamics.physicality_defect", None),
    ("optocool.dynamics", "lyapunov_steady_state", "dynamics.lyapunov_steady_state", None),
    ("optocool.cli", "output_variance_track", "dynamics.output_variance_track", None),
    ("optocool.cli", "matched_filter_pairs", "dynamics.matched_filter_pairs", None),
    ("optocool.cli", "two_time_correlations", "dynamics.two_time_correlations", _pairs_counts),
    ("optocool.cli", "homodyne_variance", "dynamics.homodyne_variance", None),
)


class Tracer:
    """In-memory span recorder.

    A span is ``[name, parent, job, start, end, raised, counts]``; parent
    is the index of the enclosing span (-1 for a root), and ``job`` is
    the id shared by all spans of one CLI call.
    """

    def __init__(self):
        self.spans = []
        self.job = -1
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, counter=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.job, 0.0, 0.0, False, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if counter is not None:
                rec[6] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr, name, counter in PATCHES:
            ns = importlib.import_module(module)
            original = getattr(ns, attr)
            self._saved.append((ns, attr, original))
            setattr(ns, attr, self.wrap(name, original, counter))

    def remove(self):
        while self._saved:
            ns, attr, original = self._saved.pop()
            setattr(ns, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()


def summarize(spans) -> dict:
    """Per-function totals: calls, raised, total and self time, counters.

    Self time is a span's duration minus the durations of its direct
    children. ``objective_calls`` and ``objective_raised`` count the
    spectrum integrals made directly by the optimizer.
    """
    child = defaultdict(float)
    for rec in spans:
        if rec[1] >= 0:
            child[rec[1]] += rec[4] - rec[3]
    out = defaultdict(lambda: defaultdict(float))
    for i, (name, parent, _job, t0, t1, raised, counts) in enumerate(spans):
        s = out[name]
        s["calls"] += 1
        s["raised"] += raised
        s["total_ms"] += (t1 - t0) * 1e3
        s["self_ms"] += (t1 - t0 - child[i]) * 1e3
        for key, value in (counts or {}).items():
            s[key] += value
        if name == "spectra.integrate_variances" and parent >= 0 \
                and spans[parent][0] == "adiabatic.optimize_operating_point":
            opt = out["adiabatic.optimize_operating_point"]
            opt["objective_calls"] += 1
            opt["objective_raised"] += raised
    return out


def layer_self_ms(summary) -> dict:
    """Self time summed over the spans of each layer (module)."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for name, s in summary.items():
        totals[name.split(".", 1)[0]] += s["self_ms"]
    return totals
