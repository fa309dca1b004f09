#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny scale. Run from the repository
root (it builds the binaries on first use):

    python3 -m unittest perfbench/test_smoke.py

It checks that every metric BENCHMARK.json names is emitted with its
unit, that a flipped `basic` label counts as a failed operation, and
that the benchmark refuses to run without the repository's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

RUN = os.path.join("perfbench", "run.py")


def bench(workload, trace=0, *extra, cwd=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=cwd)


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open("BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def assert_metrics(self, out, declared):
        self.assertEqual(set(out["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = out["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload_emits_every_end_to_end_metric(self):
        for w in self.spec["workloads"]:
            out = result(bench(w["name"]))
            self.assertTrue(out["correct"], out)
            self.assertEqual(out["failed"], 0)
            self.assertGreater(out["attempted"], 0)
            self.assert_metrics(out, self.spec["end_to_end"])

    def test_traced_run_emits_every_per_layer_metric(self):
        for w in self.spec["workloads"]:
            out = result(bench(w["name"], 1))
            self.assertTrue(out["correct"], out)
            self.assert_metrics(out, self.spec["per_layer"])

    def test_a_flipped_basic_label_is_a_failed_operation(self):
        proc = bench(self.spec["workloads"][0]["name"], 0, "--corrupt-basic-label")
        out = result(proc)
        self.assertFalse(out["correct"])
        self.assertGreaterEqual(out["failed"], 1)
        self.assertIn("basic", proc.stdout)

    def test_refuses_to_run_without_the_sources(self):
        bare = os.path.join(".bench_work", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
        shutil.copy("BENCHMARK.json", bare)
        try:
            proc = bench(self.spec["workloads"][0]["name"], cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
