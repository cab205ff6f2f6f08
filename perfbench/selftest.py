#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

Run from the root of a checkout (takes about two minutes):

    python3 perfbench/selftest.py

Checks that every metric name is well formed, has a unit and matches
BENCHMARK.json; that the golden_sweep subset is deterministic; that the
stepped harness folds the same digest as core::run_scenario; that every
workload runs clean traced and untraced; that each traced workload spends
most of its steps in the layer it was chosen for; and that the command
fails without printing a result when the simulator's sources are absent.
The traced-run invariants (step classes cover 90-100% of traced wall; the
traced run reaches the untraced run's events, completed count and
makespan) are checked inside every traced run and fail it.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
# The step class each single-scenario workload was chosen to stress.
CHOSEN_CLASS = {"campus_ops": "ops", "t17_stream": "arrival",
                "backlog": "dispatch"}
# Runnable but not gated by BENCHMARK.json (see README.md).
UNGATED = ["backlog"]


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def workload_names():
    return [w["name"] for w in bench_json()["workloads"]] + UNGATED


def run_workload(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "42", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_harness_selftest(self):
        proc = subprocess.run([run.BINARY, "--selftest", "--root", ROOT],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_metric_names_match_benchmark_json(self):
        proc = subprocess.run([run.BINARY, "--list-metrics"],
                              capture_output=True, text=True, check=True)
        printed = {"end_to_end": [], "per_layer": []}
        for line in proc.stdout.splitlines():
            kind, name, unit = line.split()
            self.assertRegex(name, NAME)
            self.assertTrue(unit)
            printed[kind].append((name, unit))
        doc = bench_json()
        for kind in printed:
            declared = [(m["name"], m["unit"]) for m in doc[kind]]
            self.assertEqual(printed[kind], declared, kind)

    def test_traced_runs(self):
        per_layer = [m["name"] for m in bench_json()["per_layer"]]
        for name in workload_names():
            with self.subTest(workload=name):
                code, lines, err = run_workload(name, 1)
                self.assertEqual(code, 0, err)
                result = json.loads(lines[-1])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(list(result["metrics"]), per_layer)
                if name not in CHOSEN_CLASS:
                    continue
                shares = {c: result["metrics"][f"step.{c}_share"]["value"]
                          for c in ("ops", "arrival", "dispatch", "other")}
                self.assertEqual(max(shares, key=shares.get),
                                 CHOSEN_CLASS[name], shares)
                if name == "backlog":
                    self.assertGreater(shares["dispatch"], 0.5)

    def test_untraced_runs(self):
        end_to_end = [m["name"] for m in bench_json()["end_to_end"]]
        for name in workload_names():
            with self.subTest(workload=name):
                code, lines, err = run_workload(name, 0)
                self.assertEqual(code, 0, err)
                result = json.loads(lines[-1])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(list(result["metrics"]), end_to_end)
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_fails_without_sources(self):
        bare = os.path.join(run.BUILD, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            code, lines, _ = run_workload("campus_ops", 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
