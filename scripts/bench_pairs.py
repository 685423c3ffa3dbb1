"""Alternating parent/change runs of the benchmark, written to a BENCH_<n>.json.

Usage, from the repository root::

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload spectral --seed 1 --pairs 10 --out BENCH_8.json

``DIR`` is a checkout of each commit (``git archive`` into a scratch
directory, for example). Each pair runs ``perfbench/run.py --trace 0``
once in each checkout, parent first in even pairs and change first in
odd ones. Every run's end-to-end metrics, its seed, its pair and its
position in the pair are appended to ``--out`` (created if missing), and
the summary of each (workload, seed) is recomputed from all its runs:
per side the median and quartiles of every metric, and the number of
pairs the change wins, by the metric's direction in ``BENCHMARK.json``.
An existing ``--out`` must hold runs of the same ``--seconds``; otherwise
the script exits with status 1 before any run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    *_, info, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "environment": json.loads(info)["environment"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list, better: dict) -> dict:
    out = {}
    for key in sorted({(r["workload"], r["seed"]) for r in runs}):
        mine = [r for r in runs if (r["workload"], r["seed"]) == key]
        pairs = sorted({r["pair"] for r in mine})
        table = {}
        for metric, direction in better.items():
            side = {s: [r["metrics"][metric] for r in mine if r["side"] == s]
                    for s in ("parent", "change")}
            wins = 0
            for p in pairs:
                by = {r["side"]: r["metrics"][metric] for r in mine if r["pair"] == p}
                if len(by) == 2 and by["change"] != by["parent"]:
                    wins += (by["change"] > by["parent"]) == (direction == "higher")
            table[metric] = {"parent": quartiles(side["parent"]),
                             "change": quartiles(side["change"]),
                             "change_wins": wins, "pairs": len(pairs)}
        out[f"{key[0]}/seed{key[1]}"] = table
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    doc = {"seconds": args.seconds, "runs": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["seconds"] != args.seconds:
            sys.exit(f"{args.out} holds {doc['seconds']} s runs, not --seconds {args.seconds}; "
                     "one summary must not mix run lengths")
    first = max((r["pair"] for r in doc["runs"]
                 if (r["workload"], r["seed"]) == (args.workload, args.seed)), default=-1) + 1
    for pair in range(first, first + args.pairs):
        sides = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for order, side in enumerate(sides):
            run = run_once(getattr(args, side), args.workload, args.seed, args.seconds)
            doc["runs"].append({"workload": args.workload, "seed": args.seed, "pair": pair,
                                "order": order, "side": side, **run})
            print(args.workload, args.seed, pair, side,
                  {k: round(v, 4) for k, v in run["metrics"].items()}, flush=True)
    doc["summary"] = summarize(doc["runs"], better)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
