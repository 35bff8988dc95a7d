#!/usr/bin/env python3
"""Run-to-run spread of every benchmark metric.

    python3 perfbench/stability.py [--runs 10] [--trace 0|1] [--seconds S]
        [--out FILE]

Runs perfbench/run.py --runs times on every workload in BENCHMARK.json,
with seeds 1, 2, ..., --runs, and reports for each metric the median,
the first and third quartiles (statistics.quantiles(values, n=4)) and the
spread (Q3 - Q1) / median, next to the bound BENCHMARK.json sets for it.
These figures are what the bounds are set from. With --out the raw values,
the summary, each metric's unit and direction, and the commit measured are
also written as JSON (perfbench/baseline.json is such a file).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: run failed "
                           f"(exit {proc.returncode})")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else None
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "min": min(values), "max": max(values)}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        summary = {}
        print(f"\n{workload}: {args.runs} runs")
        print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name in runs[0]:
            s = summarize([r[name] for r in runs])
            s["values"] = [r[name] for r in runs]
            summary[name] = s
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] is not None:
                flag = " ok" if s["spread"] <= bound / 3 else (
                    " <bound" if s["spread"] <= bound else " OVER")
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:36s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {spread:>8s} "
                  f"{'' if bound is None else bound:>6}{flag}")
        print(flush=True)
        report[workload] = summary
    if args.out:
        metrics = spec["per_layer" if args.trace else "end_to_end"]
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
            ).stdout.strip() or None
        except OSError:
            commit = None
        with open(args.out, "w") as f:
            json.dump({"commit": commit, "trace": args.trace,
                       "runs": args.runs, "seconds": args.seconds,
                       "seeds": [1, args.runs],
                       "metrics": {m["name"]: {k: m[k] for k in m
                                               if k != "name"}
                                   for m in metrics},
                       "workloads": report}, f, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
