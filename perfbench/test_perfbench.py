#!/usr/bin/env python3
"""Tests of the coupling-loop benchmark itself, on its tiny-size workloads.

    python3 perfbench/test_perfbench.py

Each test runs perfbench/run.py (building on first use) with --tiny and
checks the printed JSON against BENCHMARK.json.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, seed=1):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=900)
    lines = proc.stdout.decode().strip().splitlines()
    return proc.returncode, json.loads(lines[-1])


class TinyWorkloads(unittest.TestCase):
    def check_metrics(self, result, spec):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})
        for m in spec:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_end_to_end_metrics_are_printed_with_units(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result = run(w, 0)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.check_metrics(result, SPEC["end_to_end"])

    def test_per_layer_metrics_are_printed_with_units(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result = run(w, 1)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.check_metrics(result, SPEC["per_layer"])
                self.assertGreaterEqual(result["metrics"]["host.coverage"]["value"], 0.95)
                self.assertGreaterEqual(result["metrics"]["cp.coverage"]["value"], 0.95)

    def test_oracle_catches_a_flipped_bit(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result = run(w, 0, "--corrupt")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_virtual_metrics_repeat_exactly(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, first = run(w, 0, seed=7)
                _, second = run(w, 0, seed=7)
                virt = [m for m in first["metrics"] if m.startswith("virt_")]
                self.assertEqual(len(virt), 4)
                for m in virt:
                    self.assertEqual(first["metrics"][m]["value"],
                                     second["metrics"][m]["value"], m)


if __name__ == "__main__":
    unittest.main()
