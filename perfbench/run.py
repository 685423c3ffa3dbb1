"""optocool benchmark: seeded CLI jobs run in process, one client, closed loop.

Usage, from the repository root::

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 35 --trace 0

Each job is one in-process ``optocool.cli.main(argv)`` call on a job list
generated from ``--seed`` (see ``jobs.py``); the next job starts when the
previous one returns. The launcher pins BLAS to one thread before numpy
is loaded. With ``--trace 0`` it cycles through the job list for
``--seconds``, times a few fresh interpreters importing optocool.cli
along the way, and reports the end-to-end metrics. Job times are
reported in units of a reference solve (``ref``): a fixed RK45 solve
that does not touch optocool, timed between the jobs, so that each job
is divided by how fast the machine ran next to it. With ``--trace 1`` it
runs the list with and without spans around the calls into each module
(``tracer.py``) and reports the per-layer metrics. Every job's
output is checked (``checks.py``). Untimed probes (``jobs.PROBES``) run
once at the end; they are reported on the info line, not counted in
``failed``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Set before numpy loads, in this process and every child it starts.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Fresh interpreters timed for setup_s (after one untimed warm import),
#: spread evenly over the measured window.
SETUP_REPS = 5
#: Seconds of job time between two reference solves.
REF_EVERY_S = 0.25
#: Passes over the job list in a traced run; cli_small jobs take about a
#: millisecond, so one pass of them is too short to time.
TRACE_PASSES = {"cli_small": 25}

#: (metric, unit, span name, statistic) for the traced run.
PER_LAYER = [
    ("spectra.integrate_variances.calls", "count", "spectra.integrate_variances", "calls"),
    ("spectra.integrate_variances.self_ms", "ms", "spectra.integrate_variances", "self_ms"),
    ("spectra.integrate_variances.raised", "count", "spectra.integrate_variances", "raised"),
    ("spectra.quad.calls", "count", "spectra.quad", "calls"),
    ("spectra.quad.neval", "count", "spectra.quad", "neval"),
    ("spectra.quad.subintervals", "count", "spectra.quad", "subintervals"),
    ("spectra.quad.self_ms", "ms", "spectra.quad", "self_ms"),
    ("adiabatic.optimize_operating_point.calls", "count", "adiabatic.optimize_operating_point", "calls"),
    ("adiabatic.optimize_operating_point.self_ms", "ms", "adiabatic.optimize_operating_point", "self_ms"),
    ("adiabatic.optimize_operating_point.objective_calls", "count",
     "adiabatic.optimize_operating_point", "objective_calls"),
    ("adiabatic.optimize_operating_point.objective_raised", "count",
     "adiabatic.optimize_operating_point", "objective_raised"),
    ("adiabatic.approx_variance.calls", "count", "adiabatic.approx_variance", "calls"),
    ("adiabatic.approx_variance.self_ms", "ms", "adiabatic.approx_variance", "self_ms"),
    ("adiabatic.effective_rates.calls", "count", "adiabatic.effective_rates", "calls"),
    ("adiabatic.effective_rates.self_ms", "ms", "adiabatic.effective_rates", "self_ms"),
    ("dynamics.evolve_covariance.calls", "count", "dynamics.evolve_covariance", "calls"),
    ("dynamics.evolve_covariance.self_ms", "ms", "dynamics.evolve_covariance", "self_ms"),
    ("dynamics.solve_ivp.nfev", "count", "dynamics.solve_ivp", "nfev"),
    ("dynamics.solve_ivp.self_ms", "ms", "dynamics.solve_ivp", "self_ms"),
    ("dynamics.physicality_defect.calls", "count", "dynamics.physicality_defect", "calls"),
    ("dynamics.physicality_defect.self_ms", "ms", "dynamics.physicality_defect", "self_ms"),
    ("dynamics.lyapunov_steady_state.calls", "count", "dynamics.lyapunov_steady_state", "calls"),
    ("dynamics.lyapunov_steady_state.self_ms", "ms", "dynamics.lyapunov_steady_state", "self_ms"),
    ("dynamics.two_time_correlations.calls", "count", "dynamics.two_time_correlations", "calls"),
    ("dynamics.two_time_correlations.pairs", "count", "dynamics.two_time_correlations", "pairs"),
    ("dynamics.two_time_correlations.self_ms", "ms", "dynamics.two_time_correlations", "self_ms"),
    ("dynamics.build_system.self_ms", "ms", "dynamics.build_system", "self_ms"),
    ("dynamics.matched_filter_pairs.self_ms", "ms", "dynamics.matched_filter_pairs", "self_ms"),
    ("dynamics.homodyne_variance.self_ms", "ms", "dynamics.homodyne_variance", "self_ms"),
    ("model.solve_steady_state.calls", "count", "model.solve_steady_state", "calls"),
    ("model.solve_steady_state.self_ms", "ms", "model.solve_steady_state", "self_ms"),
    ("model.normalize.calls", "count", "model.normalize", "calls"),
    ("model.normalize.self_ms", "ms", "model.normalize", "self_ms"),
    ("cli.main.self_ms", "ms", "cli.main", "self_ms"),
    ("cli.parse_config.calls", "count", "cli.parse_config", "calls"),
    ("cli.parse_config.self_ms", "ms", "cli.parse_config", "self_ms"),
    ("cli.run.self_ms", "ms", "cli.run", "self_ms"),
    ("cli.emit_csv.self_ms", "ms", "cli.emit_csv", "self_ms"),
]

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def time_setup() -> float:
    """Seconds from starting a fresh interpreter to optocool.cli imported."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import optocool.cli"], env=child_env(),
                   check=True, timeout=120)
    return perf_counter() - t0


def make_reference_solve():
    """A timer for one fixed solve that shares no code with optocool.

    RK45 on a damped pair of coupled oscillators, a 4x4 linear system,
    over 40 time units: 40 to 65 ms of the same kind of work as the jobs
    (Python-level solver steps on small numpy arrays). The two vCPUs of
    the machine the benchmark was built on share a core with other
    tenants, and its speed moves by 1.5-2x from one minute to the next;
    the solve slows down with the jobs next to it, so the ratio of the
    two stays put while each moves.
    """
    import numpy as np
    from scipy.integrate import solve_ivp

    a = np.array([[-0.01, 1.0, 0.0, 0.0], [-1.0, -0.01, 0.3, 0.0],
                  [0.0, 0.0, -0.5, 3.0], [0.0, 0.3, -3.0, -0.5]])
    y0 = np.ones(4)

    def rhs(t, y):
        return a @ y

    def solve() -> float:
        t0 = perf_counter()
        solve_ivp(rhs, (0.0, 40.0), y0, method="RK45", rtol=1e-9, atol=1e-12)
        return perf_counter() - t0

    return solve


class Runner:
    """Calls ``optocool.cli.main`` on jobs and keeps the first outcome of each."""

    def __init__(self, main):
        self.main = main
        self.first = {}      # job index -> outcome
        self.mismatch = {}   # job index -> reason a later outcome differed

    def call(self, index, job):
        out, err = StringIO(), StringIO()
        exc = None
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.main(list(job.argv))
        except (Exception, SystemExit) as e:  # anything escaping main is a failure
            rc, exc = None, f"{type(e).__name__}: {e}"
        dt = perf_counter() - t0
        outcome = (rc, out.getvalue(), err.getvalue(), exc)
        seen = self.first.setdefault(index, outcome)
        if seen is not outcome and seen != outcome and index not in self.mismatch:
            self.mismatch[index] = "output differs between runs of the same job"
        return dt, outcome


def p90(times):
    """90th percentile, interpolated between the two nearest times.

    A fixed percentile of whole passes falls at the same rank of the job
    list in every run. The highest percentile with ten jobs beyond it
    does not: on transient, with three or four passes a run, it fell on
    the third slowest job in some runs and the fourth in others.
    """
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def judge(jobs, runner, check):
    """Reason for failure, or None, for every job index that ran."""
    return {index: runner.mismatch.get(index) or check(jobs[index], outcome)
            for index, outcome in runner.first.items()}


class Run:
    """What a measured run records."""

    def __init__(self):
        self.times = []     # wall seconds of each job
        self.indices = []   # job index of each job
        self.ref = []       # each job's time over the reference solves around it
        self.solves = []    # wall seconds of each reference solve
        self.setups = []    # wall seconds of each set-up
        self.elapsed = 0.0


def measured_run(jobs, runner, seconds, reference_solve):
    """Closed loop over the job list until ``seconds`` have elapsed.

    A reference solve runs before the first job and again after every
    REF_EVERY_S of job time; the jobs in between are divided by the mean
    of the two solves around them. SETUP_REPS set-ups run at evenly
    spaced times, each between two blocks of jobs.
    """
    run = Run()
    pending = []  # wall times of the jobs since the last reference solve
    run.solves.append(reference_solve())
    start = perf_counter()

    def close_block():
        run.solves.append(reference_solve())
        scale = (run.solves[-2] + run.solves[-1]) / 2.0
        run.ref.extend(dt / scale for dt in pending)
        pending.clear()

    i = 0
    while perf_counter() - start < seconds:
        setup_due = len(run.setups) * seconds / SETUP_REPS
        if len(run.setups) < SETUP_REPS and perf_counter() - start >= setup_due:
            if pending:
                close_block()
            run.setups.append(time_setup())
            run.solves.append(reference_solve())  # a fresh one after the child process
        index = i % len(jobs)
        dt, _ = runner.call(index, jobs[index])
        run.times.append(dt)
        run.indices.append(index)
        pending.append(dt)
        i += 1
        if sum(pending) >= REF_EVERY_S:
            close_block()
    if pending:
        close_block()
    run.elapsed = perf_counter() - start
    return run


def traced_run(jobs, runner, passes):
    """Untraced then traced passes; per-layer metrics and any output mismatch."""
    import optocool.cli
    from tracer import Tracer, layer_self_ms, summarize

    order = [i for _ in range(passes) for i in range(len(jobs))]
    t0 = perf_counter()
    for index in order:
        runner.call(index, jobs[index])
    untraced = perf_counter() - t0

    tracer = Tracer()
    traced_runner = Runner(tracer.wrap("cli.main", optocool.cli.main))
    csv_bytes = 0
    with tracer:
        t0 = perf_counter()
        for job_id, index in enumerate(order):
            tracer.job = job_id
            _, outcome = traced_runner.call(index, jobs[index])
            csv_bytes += len(outcome[1].encode())
        traced = perf_counter() - t0
    for index, outcome in traced_runner.first.items():
        if outcome != runner.first[index]:
            runner.mismatch.setdefault(index, "output differs with tracing on")

    summary = summarize(tracer.spans)
    metrics = {}
    for name, unit, span, stat in PER_LAYER:
        metrics[name] = (float(summary[span][stat]) if span in summary else 0.0, unit)
    metrics["cli.emit_csv.bytes"] = (float(csv_bytes), "bytes")
    for layer, ms in layer_self_ms(summary).items():
        metrics[f"{layer}.self_ms"] = (ms, "ms")
    root_ms = sum((r[4] - r[3]) * 1e3 for r in tracer.spans if r[1] < 0)
    metrics["bench.unattributed_ms"] = (traced * 1e3 - root_ms, "ms")
    metrics["bench.trace_overhead_frac"] = (traced / untraced - 1.0, "1")
    return metrics, order + order


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_pin": BLAS_PIN,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "optocool", "cli.py")):
        print(f"optocool sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)
    sys.path.insert(0, SRC)

    import jobs as jobgen

    if args.workload not in jobgen.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(jobgen.WORKLOADS)}",
              file=sys.stderr)
        return 2
    import optocool.cli
    from checks import check

    jobs = jobgen.generate(args.workload, args.seed)
    runner = Runner(optocool.cli.main)
    warm = {}
    for index, job in enumerate(jobs):  # one job of each kind fills lazy imports
        warm.setdefault(job.kind, index)
    for index in warm.values():
        runner.call(index, jobs[index])

    if args.trace == 0:
        time_setup()  # compiles bytecode; not timed
        reference_solve = make_reference_solve()
        for _ in range(3):
            reference_solve()
        run = measured_run(jobs, runner, args.seconds, reference_solve)
        ran = run.indices
        # Whole passes only, so that every job in the list weighs the same;
        # transient makes three to five passes, and the jobs of a partial
        # one would move the figures from seed to seed.
        timed = run.ref[:len(run.ref) - len(run.ref) % len(jobs)] or run.ref
        metrics = {
            "setup_s": (statistics.median(run.setups), "s"),
            "jobs_per_ref": (len(timed) / sum(timed), "1/ref"),
            "job_p50_ref": (statistics.median(timed), "ref"),
            "job_p90_ref": (p90(timed), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        extra = {  # the same in wall-clock time, which moves with the machine
            "reference_solve_ms": statistics.median(run.solves) * 1e3,
            "reference_solves": len(run.solves),
            "jobs_per_s": len(run.times) / run.elapsed,
            "job_p50_ms": statistics.median(run.times) * 1e3,
            "job_p90_ms": p90(run.times) * 1e3,
            "job_samples": len(timed),
            "passes": len(run.times) / len(jobs),
        }
    else:
        metrics, ran = traced_run(jobs, runner, TRACE_PASSES.get(args.workload, 1))
        extra = {"trace_passes": TRACE_PASSES.get(args.workload, 1)}

    probes = jobgen.generate_probes(args.workload, args.seed)
    probe_runner = Runner(optocool.cli.main)
    probe_failures = []
    for index, job in enumerate(probes):
        _, outcome = probe_runner.call(index, job)
        reason = check(job, outcome)
        if reason:
            probe_failures.append((job.kind, " ".join(job.argv), reason))

    reasons = judge(jobs, runner, check)
    failed = sum(1 for index in ran if reasons[index])
    correct = not any(reasons.values())
    if args.trace == 0:
        metrics["ok_frac"] = (1.0 - failed / len(ran), "1")  # 1 - failed_frac, never 0

    failures = sorted({(jobs[i].kind, " ".join(jobs[i].argv), reasons[i])
                       for i in reasons if reasons[i]})
    for kind, cmd, reason in failures:
        print(f"FAILED [{kind}] optocool {cmd}: {reason}", file=sys.stderr)
    for kind, cmd, reason in probe_failures:
        print(f"PROBE FAILED [{kind}] optocool {cmd}: {reason}", file=sys.stderr)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs_in_list": len(jobs),
        "job_list_sha256": jobgen.job_list_hash(jobs + probes),
        "failed_frac": failed / len(ran), "distinct_failures": len(failures),
        "probes": len(probes), "probes_failed": len(probe_failures),
        **extra, "environment": environment(),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": len(ran),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
