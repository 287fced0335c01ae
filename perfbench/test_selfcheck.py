#!/usr/bin/env python3
"""Quick self-check of the benchmark: a seconds-long run of every workload,
traced and untraced, must emit every metric BENCHMARK.json names, finite and
with its unit; BENCHMARK.json must keep to the benchmark contract; and the
benchmark must fail cleanly where the library sources are missing.

    python3 perfbench/test_selfcheck.py      (from the repository root)

Takes about two minutes once the driver is built.
"""

import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SECONDS = "3"
# Measured on the reference host (README.md, "Measured noise"), rounded
# up: the largest wall time of one run at run_seconds = 50 over the
# ten-seed runs of each gated workload (48 s and 68 s), and one clean build
# of krbench and the library (36 s).
RUN_WALL_S = {"mine": 50, "serve-ingest": 70}
BUILD_S = 40


def run(workload, trace, cwd=ROOT, env=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


class ContractTest(unittest.TestCase):
    def test_spec_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= len(SPEC["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(SPEC["per_layer"]) <= 128)
        self.assertIsInstance(SPEC["run_seconds"], int)
        # 22 runs per workload and 4 more, with their set-up and drains,
        # and two builds must fit the 3420 s budget of a full measurement.
        self.assertEqual(SPEC["run_seconds"], 50)
        walls = [RUN_WALL_S[w["name"]] for w in SPEC["workloads"]]
        self.assertLess(22 * sum(walls) + 4 * max(walls) + 2 * BUILD_S, 3420)
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def test_fails_without_sources(self):
        bare = pathlib.Path(os.environ.get("CARGO_TARGET_DIR",
                                           ROOT / ".bench_build")) / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=str(bare / ".bench_build"))
        proc = run("mine", 0, cwd=bare, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class WorkloadTest(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        listed = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
        for m in listed:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_mine(self):
        self.check("mine", 0)

    def test_mine_traced(self):
        self.check("mine", 1)

    def test_serve(self):
        self.check("serve", 0)

    def test_serve_traced(self):
        self.check("serve", 1)

    def test_serve_ingest(self):
        self.check("serve-ingest", 0)

    def test_serve_ingest_traced(self):
        self.check("serve-ingest", 1)


if __name__ == "__main__":
    unittest.main(verbosity=2)
