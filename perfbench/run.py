#!/usr/bin/env python3
"""Builds and runs the serving benchmark, then checks its output.

Run from the repository root:

    python3 perfbench/run.py --workload point-mawi --seed 1 --seconds 10 --trace 0

The benchmark is built from source (`cargo build --release` of
perfbench/Cargo.toml into $CARGO_TARGET_DIR, default .bench_build). Its
output is relayed; the last line is the result object. The run fails,
naming them, if any metric BENCHMARK.json declares for the mode, or any
report field below, is missing or not a number.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170

# Reported on the line before the result, not as gated metrics: the
# error rate is zero at a healthy commit, and the refresh lag exists on
# the stream workload only (every gated metric must exist everywhere).
# The host-speed factors the end-to-end times were scaled by.
REPORT_NUMBERS = ["error_rate", "verified", "answered", "host_scale", "setup_host_scale"]
STREAM_REPORT_NUMBERS = ["refresh_lag_ms"]
PROVENANCE = ["nproc", "pool_threads", "dtype", "seed", "revision",
              "bound_algorithm", "bound_ranks"]


def declared(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def source_files():
    for top in ["Cargo.toml", "Cargo.lock", "crates", "src", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            yield path
        for d, dirs, files in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "__pycache__"))
            for f in sorted(files):
                yield os.path.join(d, f)


def revision():
    """`git describe`, or a digest of the sources where there is no git."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for name in source_files():
        digest.update(os.path.relpath(name, ROOT).encode())
        with open(name, "rb") as f:
            digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def bad_numbers(obj, names):
    return [n for n in names
            if not isinstance(obj.get(n), (int, float)) or isinstance(obj.get(n), bool)
            or not math.isfinite(obj[n])]


def problems(result, report, trace):
    """Names the output is missing, or holds as anything but a number."""
    metrics = {n: m for n, m in result.get("metrics", {}).items() if isinstance(m, dict)}
    units = declared(trace)
    missing = bad_numbers({n: m.get("value") for n, m in metrics.items()}, units)
    missing += [f"{n} (unit {metrics[n].get('unit')}, declared {u})"
                for n, u in units.items() if n in metrics and metrics[n].get("unit") != u]
    missing += bad_numbers(report, REPORT_NUMBERS)
    if report.get("provenance", {}).get("tenants"):
        missing += bad_numbers(report, STREAM_REPORT_NUMBERS)
    provenance = report.get("provenance", {})
    missing += ["provenance." + n for n in PROVENANCE if n not in provenance]
    return missing


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--revision", revision()]
    # One CPU: on a shared 2-vCPU VM, every cross-CPU wakeup of a rank
    # thread waits on the host scheduler, and that wait swings 2x
    # between minutes; pinned, the run-to-run spread fits the bounds.
    cpu = min(os.sched_getaffinity(0))
    try:
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S,
                             preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or len(lines) < 2:
        sys.stderr.write(run.stdout)
        print(f"perfbench: exited with {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    missing = problems(result, report, args.trace == "1")
    if missing:
        sys.stderr.write(run.stdout)
        print("perfbench: missing from the output: " + ", ".join(missing), file=sys.stderr)
        return 1
    print(run.stdout, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
