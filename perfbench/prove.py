"""Run a workload over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/prove.py --workloads figure1 superblock optimality \\
        --seeds 1 2 3 4 5 6 7 8 9 10 [--out perfbench/trajectory/NAME.json]

Runs ``perfbench/run.py`` once per (workload, seed), one at a time, with the
``run_seconds`` of BENCHMARK.json, and prints for every end-to-end metric its
median and its spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound.  With ``--out`` the per-run results are written as one point
of the benchmark trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    """Median, and the interquartile distance as a share of it (None at 0)."""

    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    report = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads(proc.stdout.strip().splitlines()[-2])
            runs.append({"seed": seed, "elapsed_s": elapsed, "result": result,
                         "quality": record["quality"], "environment": record["environment"],
                         "passes": record["passes"]})
            print(workload, seed, f"{elapsed:.1f}s", result["correct"], result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()
                   if not args.trace}, flush=True)
        summary = {}
        for m in metrics:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            med, sp = spread(values)
            summary[m["name"]] = {"median": med, "spread": sp, "bound": m.get("bound")}
            if not args.trace:
                print(f"  {m['name']:16s} median {med:.4f} spread {sp:.3f} bound {m['bound']}")
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
