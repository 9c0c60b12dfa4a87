"""Append one entry to the bench trajectory (``trajectory.json``).

    python3 perfbench/record.py --label baseline --commit 0d6b9b8 [--runs 10] [--seconds 50]

Runs ``run.py`` on every workload once per seed (seeds 1..RUNS), untraced,
and keeps the median and quartiles of each end-to-end metric; then one
traced run per workload (seed 1) for the per-layer metrics.  The entry
also records the Python version and the number of processors.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

TRAJECTORY = os.path.join(HERE, "trajectory.json")


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of the benchmark command; its last line of output."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True, cwd=run.ROOT,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--commit", default="")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50)
    args = parser.parse_args(argv)

    workloads = {}
    for name in run.WORKLOADS:
        results = [bench(name, seed, args.seconds, 0) for seed in range(1, args.runs + 1)]
        traced = bench(name, 1, args.seconds, 1)
        workloads[name] = {
            "runs": len(results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {k: summarise([r["metrics"][k]["value"] for r in results])
                           for k in run.END_TO_END},
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        print(name, json.dumps(workloads[name]["end_to_end"]), flush=True)

    entry = {
        "label": args.label,
        "commit": args.commit,
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seeds": list(range(1, args.runs + 1)),
        "run_seconds": args.seconds,
        "workloads": workloads,
    }
    trajectory = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY, encoding="utf-8") as fh:
            trajectory = json.load(fh)
    trajectory.append(entry)
    with open(TRAJECTORY, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
