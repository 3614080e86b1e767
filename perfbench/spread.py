#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Run from the repository root:

    python3 perfbench/spread.py --workload batch-web --seeds 1-10

runs the benchmark once per seed and prints, for every end-to-end
metric, the median of the runs, the distance between their first and
third quartile as a share of that median, and the metric's bound from
BENCHMARK.json. A spread below a third of the bound is steady. The
same follows, unbounded, for the wall-clock values the metrics were
scaled from and for the host-speed factors.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(median, (Q3 - Q1) / median), quartiles as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"seed {seed}: {result['failed']} failed of {result['attempted']}")
    report = json.loads(lines[-2])["report"]
    values = {n: m["value"] for n, m in result["metrics"].items()}
    values.update({"wall " + n: m["value"] for n, m in report["wall"].items()})
    values.update({n: report[n] for n in ("host_scale", "setup_host_scale")})
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=seeds)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    runs = [run_once(args.workload, s, seconds) for s in args.seeds]
    print(f"{args.workload}: {len(runs)} runs of {seconds} s")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in runs[0]:
        values = [r[name] for r in runs]
        med, share = spread(values)
        bound = bounds.get(name)
        verdict = ("" if bound is None else "steady" if share < bound / 3
                   else "within bound" if share <= bound else "TOO WIDE")
        print(f"  {name:22} median {med:12.4f} spread {share:6.3f} "
              f"(bound {bound}) {verdict}   values {' '.join(f'{v:.4g}' for v in values)}")


if __name__ == "__main__":
    main()
