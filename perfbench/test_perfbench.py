#!/usr/bin/env python3
"""Self-test of the benchmark: smoke runs of every workload.

    python3 perfbench/test_perfbench.py

Every workload runs in smoke mode (one set-up, a few ops), untraced and
traced. Each run must exit 0 with correct outputs and print, as its last
line, every end-to-end metric (untraced) or per-layer metric (traced) that
BENCHMARK.json names, with its unit. The fleet test also plants a stale
file in the durable-store directory and checks that the run starts from a
fresh directory and removes it afterwards. The last test checks that the
benchmark fails, without a result, in a tree that holds only the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
OUT = os.path.join(ROOT, ".perfbench_out", "selftest")
TIMEOUT_S = 900  # The first run may build.


def run(workload, trace, cwd=ROOT, env=None):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke", "--out-dir", OUT]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=TIMEOUT_S,
                          stdin=subprocess.DEVNULL)


def run_record(stdout):
    for line in stdout.splitlines():
        if line.startswith('{"run": '):
            return json.loads(line)["run"]
    return None


class SmokeTest(unittest.TestCase):

    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        specs = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for metric in specs:
            emitted = result["metrics"][metric["name"]]
            self.assertEqual(emitted["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(emitted["value"], (int, float))
        record = run_record(proc.stdout)
        self.assertIsNotNone(record)
        self.assertEqual(record["seed"], 3)
        self.assertGreaterEqual(record["nproc"], 1)
        self.assertTrue(record["cpu_model"])
        return result, record

    def test_tune(self):
        self.check("tune", 0)

    def test_tune_traced(self):
        result, _ = self.check("tune", 1)
        metrics = result["metrics"]
        self.assertGreater(metrics["spark.jobs_per_op"]["value"], 0)
        self.assertEqual(metrics["gpu.kernels_per_op"]["value"], 0)
        self.assertTrue(os.path.exists(os.path.join(OUT, "spans-tune.json")))

    def test_score(self):
        self.check("score", 0)

    def test_score_traced(self):
        result, _ = self.check("score", 1)
        metrics = result["metrics"]
        self.assertGreater(metrics["gpu.kernels_per_op"]["value"], 0)
        self.assertEqual(metrics["spark.jobs_per_op"]["value"], 0)

    def test_fleet_traced(self):
        result, _ = self.check("fleet", 1)
        metrics = result["metrics"]
        self.assertGreater(metrics["fabric.submit_us"]["value"], 0)
        self.assertEqual(metrics["spark.jobs_per_op"]["value"], 0)
        self.assertEqual(metrics["gpu.kernels_per_op"]["value"], 0)

    def test_fleet_store_dir_fresh_and_removed(self):
        store = os.path.join(OUT, "fleet-store")
        os.makedirs(os.path.join(store, "site0"), exist_ok=True)
        with open(os.path.join(store, "site0", "stale.mseg"), "wb") as out:
            out.write(b"left over from an earlier run")
        _, record = self.check("fleet", 0)
        self.assertEqual(os.path.realpath(record["store_dir"]),
                         os.path.realpath(store))
        self.assertIs(record["store_fresh"], True)
        self.assertFalse(os.path.exists(store))

    def test_fails_without_sources(self):
        bare = os.path.join(OUT, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = run("tune", 0, cwd=bare, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
