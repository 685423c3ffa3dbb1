"""Short smoke run of every workload.

Run from the repository root as ``python3 perfbench/smoke.py``. For each
workload in BENCHMARK.json it runs the benchmark for one second untraced
and once traced, and fails unless every end-to-end metric (untraced) and
every per-layer metric (traced) is printed with the unit BENCHMARK.json
gives it, the result says ``correct``, and the same seed gives the same
job list while another seed does not. It takes about two minutes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def expect_metrics(result, wanted, label):
    got = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in got]
    assert not missing, f"{label}: missing {missing}"
    for m in wanted:
        assert got[m["name"]]["unit"] == m["unit"], f"{label}: {m['name']} unit {got[m['name']]['unit']}"
    assert set(got) == {m["name"] for m in wanted}, f"{label}: extra {set(got) - {m['name'] for m in wanted}}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for workload in (w["name"] for w in bench["workloads"]):
        info, result = run(workload, 1, 0)
        expect_metrics(result, bench["end_to_end"], f"{workload} untraced")
        assert result["correct"] and result["attempted"] >= 1, f"{workload}: {result}"
        info_again, traced = run(workload, 1, 1)
        expect_metrics(traced, bench["per_layer"], f"{workload} traced")
        assert traced["correct"], f"{workload} traced: not correct"
        assert info_again["job_list_sha256"] == info["job_list_sha256"], "seed 1 gave two job lists"
        other, _ = run(workload, 2, 0)
        assert other["job_list_sha256"] != info["job_list_sha256"], "seeds 1 and 2 gave one job list"
        print(f"ok {workload}: {result['attempted']} jobs, {len(traced['metrics'])} per-layer metrics")


if __name__ == "__main__":
    main()
