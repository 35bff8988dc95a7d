#!/usr/bin/env python3
"""Builds and runs the real-stack benchmark.

    python3 perfbench/run.py --workload <train-soak|churn|serve> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (the simulator sources under src/ plus the ksperf program) into
.bench_build/perfbench; later calls only rebuild what changed. The build
log goes to stderr. ksperf's report goes to stdout, and the last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1 (spans go to .bench_build/traces/). The exit code is non-zero
when the build fails, a correctness check fails, or the printed metric
names do not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ksperf")


def build():
    """Configures (once) and builds ksperf; returns False on failure."""
    log = sys.stderr
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                           stdout=log, stderr=log) == 0


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    # A run measures for --seconds and may overrun by up to two repetitions
    # plus the set-up trials; at the default 30 s this allows 170 s.
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=2 * args.seconds + 110)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        print(f"perfbench: ksperf exited {proc.returncode} without a result",
              file=sys.stderr)
        return proc.returncode or 4

    status = proc.returncode
    want = expected_metrics(args.trace)
    got = list(result.get("metrics", {}))
    if sorted(got) != sorted(want):
        print(f"perfbench: metric names {sorted(set(got) ^ set(want))} do "
              "not match BENCHMARK.json", file=sys.stderr)
        result["correct"] = False
        status = status or 5
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
