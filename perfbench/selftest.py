"""Self-test of the benchmark harness, kept out of the repository's test suite.

Run from the repository root::

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

It runs smoke mode (every workload once at reduced size, about a minute in
all) untraced and traced, and checks the printed result lines against
``BENCHMARK.json``: the exact top-level keys, every metric name once with its
unit, and no failed run.  It also checks that the benchmark refuses to run
without the package source, and the self-time arithmetic of the tracer.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith('{"correct"')]


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check_results(self, trace, section, positive):
        proc = run_bench(["--smoke", "--trace", str(trace)])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        results = result_lines(proc.stdout)
        self.assertEqual(len(results), len(WORKLOADS))
        # the last line of standard output is a result
        self.assertEqual(json.loads(proc.stdout.splitlines()[-1]), results[-1])
        want = {m["name"]: m["unit"] for m in self.bench[section]}
        for result in results:
            self.assertEqual(set(result), RESULT_KEYS)
            self.assertIs(result["correct"], True)
            self.assertEqual(result["failed"], 0)
            self.assertIsInstance(result["attempted"], int)
            self.assertGreaterEqual(result["attempted"], 1)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, want)
            for metric in result["metrics"].values():
                self.assertEqual(set(metric), {"value", "unit"})
                self.assertIsInstance(metric["value"], (int, float))
                if positive:
                    self.assertGreater(metric["value"], 0)

    def test_end_to_end_metrics(self):
        self.check_results(0, "end_to_end", positive=True)

    def test_per_layer_metrics(self):
        # stages a workload never calls read 0, and the overhead may be negative
        self.check_results(1, "per_layer", positive=False)

    def test_benchmark_json_names_workloads(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(WORKLOADS))
        self.assertEqual(self.bench["command"], ["python3", "perfbench/run.py"])

    def test_refuses_without_package_source(self):
        bare = os.path.join(ROOT, ".perfbench_work", f"bare-{os.getpid()}")
        try:
            os.makedirs(bare)
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(["--workload", "benthic", "--seed", "1", "--seconds", "1",
                              "--trace", "0"], cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(result_lines(proc.stdout), [])


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        spans = [
            {"id": 0, "name": "cli.main", "parent": None, "start": 0.0, "end": 10.0,
             "maxrss_mb": 50.0},
            {"id": 1, "name": "operator.build_operator", "parent": 0, "start": 1.0,
             "end": 5.0, "maxrss_mb": 80.0},
            {"id": 2, "name": "operator.knn_bandwidths", "parent": 1, "start": 1.0,
             "end": 3.0, "maxrss_mb": 60.0},
            {"id": 3, "name": "operator.eigendecompose", "parent": 0, "start": 5.0,
             "end": 9.5, "maxrss_mb": 90.0},
        ]
        own = tracing.self_times(spans)
        self.assertEqual(own, {0: 1.5, 1: 2.0, 2: 2.0, 3: 4.5})
        metrics = tracing.layer_metrics(spans, {"operator.n": 7})
        self.assertEqual(metrics["cli.self_s"], 1.5)
        self.assertEqual(metrics["cli.main_s"], 10.0)
        self.assertEqual(metrics["operator.knn_bandwidths_s"], 2.0)
        self.assertEqual(metrics["models.simulate_s"], 0.0)
        self.assertEqual(metrics["operator.build_operator.maxrss_mb"], 80.0)
        self.assertEqual(metrics["operator.n"], 7)
        self.assertEqual(metrics["operator.degenerate"], 0)


if __name__ == "__main__":
    unittest.main()
