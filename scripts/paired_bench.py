#!/usr/bin/env python3
"""Paired before/after runs of the perfbench benchmark against a git ref.

    python3 scripts/paired_bench.py --parent <git-ref> --workload <w> \
        --pairs N --seconds S --seeds a-b [--metric run_norm_s]

Run from anywhere inside the repository. The script `git archive`s the
parent ref into a scratch directory (default .bench_build/paired/), builds
the parent's perfbench/ tree and the working tree's perfbench/ tree with
identical Release flags, then runs N alternating pairs of `ksperf --trace 0`:
odd pairs run the parent first, even pairs the change first, and pair i uses
the i-th seed of the range (cycling). It prints every pair, each side's
median and quartiles of the metric, how many pairs the change won, and both
sides' medians of every other end-to-end metric.

Exit codes: 0 on success, 1 when the two sides print a different
sim_fingerprint for any seed (the change is not simulator-only), 2 when a
build or a run fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    """'a-b' -> [a..b]; 'a' -> [a]."""
    lo, _, hi = text.partition("-")
    lo = int(lo)
    hi = int(hi) if hi else lo
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def end_to_end_metrics():
    """{name: +1 when higher is better, -1 when lower} from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: 1 if m["better"] == "higher" else -1
            for m in spec["end_to_end"]}


def archive(ref, dest):
    """Extracts `git archive <ref>` into `dest`; returns the resolved sha."""
    sha = subprocess.check_output(["git", "-C", ROOT, "rev-parse", ref],
                                  text=True).strip()
    if os.path.isdir(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    git = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                           stdout=subprocess.PIPE)
    tar = subprocess.call(["tar", "-x", "-C", dest], stdin=git.stdout)
    git.stdout.close()
    if git.wait() != 0 or tar != 0:
        raise SystemExit(f"paired_bench: git archive {ref} failed")
    return sha


def build(tree, build_dir):
    """Builds <tree>/perfbench into build_dir; returns the ksperf path."""
    log = sys.stderr
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", os.path.join(tree, "perfbench"), "-B",
               build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=log, stderr=log) != 0:
        return None
    return os.path.join(build_dir, "ksperf")


def run(binary, workload, seed, seconds):
    """One ksperf run: returns ({metric: value}, sim_fingerprint)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=2 * seconds + 110)
    lines = proc.stdout.rstrip("\n").split("\n")
    fingerprint = None
    for line in lines:
        if line.startswith("sim_fingerprint:"):
            fingerprint = line.split(":", 1)[1].strip()
    try:
        report = json.loads(lines[-1])
    except (ValueError, IndexError):
        report = None
    if proc.returncode != 0 or report is None or not report.get("correct"):
        raise RuntimeError(f"{' '.join(cmd)} failed (exit {proc.returncode})")
    return ({name: m["value"] for name, m in report["metrics"].items()},
            fingerprint)


def spread(values):
    """(q1, median, q3) of the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref to compare")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--metric", default="run_norm_s")
    parser.add_argument("--workdir",
                        default=os.path.join(ROOT, ".bench_build", "paired"))
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    directions = end_to_end_metrics()
    if args.metric not in directions:
        parser.error(f"{args.metric!r} is not an end-to-end metric")
    direction = directions[args.metric]

    parent_tree = os.path.join(args.workdir, "parent-src")
    sha = archive(args.parent, parent_tree)
    binaries = {
        "parent": build(parent_tree, os.path.join(args.workdir, "parent")),
        "change": build(ROOT, os.path.join(args.workdir, "change")),
    }
    for side, binary in binaries.items():
        if binary is None:
            print(f"paired_bench: {side} build failed", file=sys.stderr)
            return 2

    values = {"parent": {}, "change": {}}
    prints = {"parent": {}, "change": {}}
    wins = 0
    print(f"paired_bench workload={args.workload} metric={args.metric} "
          f"parent={args.parent} ({sha[:12]}) pairs={args.pairs} "
          f"seconds={args.seconds:g}")
    for i in range(args.pairs):
        seed = args.seeds[i % len(args.seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            try:
                metrics, fp = run(binaries[side], args.workload, seed,
                                  args.seconds)
            except (RuntimeError, subprocess.TimeoutExpired) as e:
                print(f"paired_bench: {side}: {e}", file=sys.stderr)
                return 2
            got[side] = metrics[args.metric]
            for name, value in metrics.items():
                values[side].setdefault(name, []).append(value)
            prints[side].setdefault(seed, set()).add(fp)
        gain = direction * (got["change"] - got["parent"])
        wins += gain > 0  # ties count for neither side
        verdict = ("change wins" if gain > 0 else
                   "parent wins" if gain < 0 else "tie")
        print(f"pair {i + 1:>2} seed {seed:>3} ({order[0]} first): "
              f"parent {got['parent']:.6g}  change {got['change']:.6g}  "
              f"{verdict}")

    for side in ("parent", "change"):
        q1, med, q3 = spread(values[side][args.metric])
        print(f"{side:>6}: median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"iqr {q3 - q1:.6g}  n={args.pairs}")
    p_med = spread(values["parent"][args.metric])[1]
    c_med = spread(values["change"][args.metric])[1]
    if p_med:
        print(f"median change: {100.0 * (c_med - p_med) / p_med:+.1f}%")
    print(f"change won {wins}/{args.pairs} pairs")
    for name in directions:
        if name != args.metric:
            print(f"  {name:<12} median parent "
                  f"{spread(values['parent'][name])[1]:.6g}  change "
                  f"{spread(values['change'][name])[1]:.6g}")

    differs = [seed for seed in sorted(prints["parent"])
               if prints["parent"][seed] != prints["change"].get(seed)]
    for seed in differs:
        print(f"sim_fingerprint differs on seed {seed}: parent "
              f"{sorted(prints['parent'][seed])} change "
              f"{sorted(prints['change'][seed])}")
    if differs:
        return 1
    print("sim_fingerprint identical on every seed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
