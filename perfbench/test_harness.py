#!/usr/bin/env python3
"""Tests of the campaign benchmark itself.

    python3 perfbench/test_harness.py

Runs every workload briefly (builds first, like run.py). Checks that every
BENCHMARK.json name is well formed and printed, that the correctness gate
fires on a corrupted accumulator, that traced and untraced runs produce
identical accumulator bytes, and that a directory holding only the
benchmark exits nonzero without a result.
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
RESULTS = os.path.join(ROOT, ".bench_build", "perfbench-results")
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 7


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=900)


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class Harness(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        cls.workloads = [w["name"] for w in cls.bench["workloads"]]
        cls.results = {}
        for trace, names in ((0, cls.workloads), (1, cls.workloads[:1])):
            for w in names:
                cls.results[(w, trace)] = run(
                    "--workload", w, "--seed", str(SEED), "--seconds", "1",
                    "--trace", str(trace))

    def record(self, workload, trace):
        path = os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (
            workload, SEED, trace))
        with open(path) as f:
            return json.load(f)

    def test_names_are_well_formed_and_unique(self):
        names = self.workloads + [
            m["name"] for m in self.bench["end_to_end"] + self.bench["per_layer"]]
        for n in names:
            self.assertIsNotNone(NAME.fullmatch(n), n)
        self.assertEqual(len(names), len(set(names)))

    def test_every_metric_is_printed(self):
        for (w, trace), proc in self.results.items():
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                out = last_json(proc)
                self.assertEqual(
                    sorted(out), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                want = self.bench["per_layer" if trace else "end_to_end"]
                self.assertEqual(sorted(out["metrics"]),
                                 sorted(m["name"] for m in want))
                table = "\n".join(proc.stdout.splitlines()[:-1])
                for m in want:
                    self.assertEqual(out["metrics"][m["name"]]["unit"],
                                     m["unit"])
                    self.assertIn(m["name"], table)

    def test_gate_fires_on_corrupted_accumulator(self):
        # Another seed, so the record of the clean run stays in place.
        proc = run("--workload", self.workloads[0], "--seed", str(SEED + 1),
                   "--seconds", "1", "--trace", "0", "--corrupt-accumulator")
        self.assertNotEqual(proc.returncode, 0)
        out = last_json(proc)
        self.assertFalse(out["correct"])
        self.assertGreater(out["failed"], 0)
        self.assertEqual(out["metrics"], {})
        self.assertIn("correctness gate FAILED", proc.stderr)

    def test_traced_and_untraced_bytes_match(self):
        w = self.workloads[0]
        plain, traced = self.record(w, 0), self.record(w, 1)
        self.assertTrue(plain["correct"] and traced["correct"])
        self.assertEqual(plain["info"]["acc_digest"],
                         traced["info"]["acc_digest"])
        self.assertGreater(traced["info"]["spans"], 0)

    def test_bare_benchmark_directory_fails(self):
        bare = os.path.join(ROOT, ".bench_build", "perfbench-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run("--workload", self.workloads[0], "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
