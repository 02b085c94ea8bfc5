#!/usr/bin/env python3
"""Self-test of the benchmark, at its smallest size (a few seconds a run).

    python3 perfbench/selftest.py

Checks that every workload prints exactly the metrics BENCHMARK.json declares
(end-to-end without tracing, none of them 0; per-layer with it), each with
its declared unit; that a perturbed reference cycle count makes each
workload report failed operations; and that a checkout holding only
BENCHMARK.json and perfbench/ fails without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

WORKLOADS = ("tune-fig10", "compile-cold", "serve-mixed")


def run(workload, trace, *extra, cwd=ROOT, runner=RUN):
    command = [sys.executable, runner, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--quick", *extra]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout.splitlines()


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def declared(self, section):
        return {m["name"]: m["unit"] for m in self.bench[section]}

    def test_declared_workloads(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(WORKLOADS))

    def test_every_metric_printed_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            units = self.declared(section)
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, out = run(workload, trace)
                    self.assertEqual(code, 0, out[-5:])
                    result = json.loads(out[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(sorted(result["metrics"]), sorted(units))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], units[name], name)
                        self.assertIsInstance(metric["value"], (int, float), name)
                        if trace == 0:
                            self.assertGreater(metric["value"], 0, name)
                    self.assertTrue(any(l.startswith("provenance: ") for l in out))

    def test_perturbed_oracle_reports_failures(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, out = run(workload, 0, "--perturb-oracle")
                self.assertEqual(code, 0, out[-5:])
                result = json.loads(out[-1])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertFalse(result["correct"])

    def test_checkout_without_sources_fails_without_result(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, out = run("tune-fig10", 0, cwd=bare,
                            runner=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(code, 0)
            self.assertFalse(any(l.startswith("{") for l in out), out)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
