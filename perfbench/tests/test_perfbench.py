#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the simulator).

    python3 -m unittest discover -s perfbench/tests -v

They drive perfbench/run.py exactly as a benchmark run does, with short
--seconds so each call makes one repetition, and check that:
  - the same seed gives identical simulated metrics and fingerprints;
  - a different seed gives different inputs;
  - every printed metric and workload name matches BENCHMARK.json;
  - the traced run's probes leave the simulation unperturbed.
The first call builds the benchmark (about a minute on four cores).
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
RUN = os.path.join(PERFBENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SIMULATED = ["ok_frac", "gpu_util", "done_per_min", "lat_p50_s", "lat_tail_s"]

_cache = {}


def run(workload, seed, trace=0):
    """Runs the benchmark once; returns (exit code, result, stdout)."""
    key = (workload, seed, trace)
    if key not in _cache:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
             "--seconds", "0.1", "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        _cache[key] = (proc.returncode, result, proc.stdout)
    return _cache[key]


def field(stdout, name):
    match = re.search(rf"^{name}: ([0-9a-f]+)$", stdout, re.M)
    return match.group(1) if match else None


class SameSeed(unittest.TestCase):
    def test_identical_simulated_metrics_and_fingerprint(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code_a, a, out_a = run(w, 7)
                # A second, uncached run of the same seed.
                _cache.pop((w, 7, 0))
                code_b, b, out_b = run(w, 7)
                self.assertEqual((code_a, code_b), (0, 0))
                self.assertTrue(a["correct"] and b["correct"])
                self.assertIsNotNone(field(out_a, "sim_fingerprint"))
                self.assertEqual(field(out_a, "sim_fingerprint"),
                                 field(out_b, "sim_fingerprint"))
                self.assertEqual(field(out_a, "inputs_fingerprint"),
                                 field(out_b, "inputs_fingerprint"))
                for m in SIMULATED:
                    self.assertEqual(a["metrics"][m], b["metrics"][m], m)


class DifferentSeed(unittest.TestCase):
    def test_different_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, _, out_a = run(w, 7)
                code, result, out_b = run(w, 8)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertNotEqual(field(out_a, "inputs_fingerprint"),
                                    field(out_b, "inputs_fingerprint"))
                self.assertNotEqual(field(out_a, "sim_fingerprint"),
                                    field(out_b, "sim_fingerprint"))


class Names(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        e2e = sorted(m["name"] for m in SPEC["end_to_end"])
        layers = sorted(m["name"] for m in SPEC["per_layer"])
        units = {m["name"]: m["unit"]
                 for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        for w in WORKLOADS:
            for trace, want in ((0, e2e), (1, layers)):
                with self.subTest(workload=w, trace=trace):
                    code, result, _ = run(w, 7, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(sorted(result), ["attempted", "correct",
                                                      "failed", "metrics"])
                    self.assertEqual(sorted(result["metrics"]), want)
                    for name, m in result["metrics"].items():
                        self.assertEqual(m["unit"], units[name], name)

    def test_unknown_workload_is_rejected(self):
        code, result, _ = run("no-such-workload", 7)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


class Probes(unittest.TestCase):
    def test_traced_run_reproduces_untraced_fingerprint(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, _, plain = run(w, 7)
                code, result, traced = run(w, 7, trace=1)
                # ksperf itself fails the run if a traced repetition's
                # fingerprint differs from the untraced one.
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertIn("(traced)", traced)
                self.assertEqual(field(plain, "sim_fingerprint"),
                                 field(traced, "sim_fingerprint"))


if __name__ == "__main__":
    unittest.main()
