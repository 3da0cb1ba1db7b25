#!/usr/bin/env python3
"""The benchmark's own test: every workload in its tiny smoke size,
untraced and traced, must verify its outputs and print exactly the
metrics BENCHMARK.json declares, with the declared units.

    python3 perfbench/test_perfbench.py      # from the checkout root

Builds through perfbench/run.py (same build directory rules).
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def smoke_run(workload, trace):
    process = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = process.stdout.strip().splitlines()
    return process.returncode, json.loads(lines[-1]) if lines else None


class SmokeTest(unittest.TestCase):
    def test_every_workload_reports_the_declared_metrics(self):
        bench = load_benchmark()
        declared = {
            0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]},
        }
        for workload in [w["name"] for w in bench["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, result = smoke_run(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {name: metric["unit"] for name, metric
                             in result["metrics"].items()}
                    self.assertEqual(units, declared[trace])

    def test_end_to_end_declares_setup_time(self):
        setup = [m for m in load_benchmark()["end_to_end"]
                 if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))

    def test_unknown_workload_fails_without_a_result(self):
        code, result = smoke_run("no-such-workload", 0)
        self.assertNotEqual(code, 0)
        self.assertTrue(result is None or "metrics" not in str(result))


if __name__ == "__main__":
    unittest.main()
