#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

- quick mode (one timed second per run): every workload, traced and
  untraced, prints every metric BENCHMARK.json names, with its unit, on
  a text line and in the final JSON object, and its output checks pass;
- the same seed generates identical transaction inputs, and another
  seed different ones;
- the negative control: a deliberately wrong expected total makes the
  run exit non-zero with correct=false.
"""

import json
import os
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args):
    p = subprocess.run(BENCH["command"] + list(args), cwd=ROOT,
                       stdout=subprocess.PIPE, text=True, timeout=170)
    return p.returncode, p.stdout


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class QuickMode(unittest.TestCase):
    def check_metrics(self, workload, trace, expected):
        code, out = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace))
        self.assertEqual(code, 0, out)
        r = result(out)
        self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(r["correct"], out)
        self.assertGreaterEqual(r["attempted"], 1)
        self.assertEqual(r["failed"], 0, out)
        self.assertEqual(set(r["metrics"]), {m["name"] for m in expected})
        text = [line.split() for line in out.splitlines()]
        for m in expected:
            self.assertEqual(r["metrics"][m["name"]]["unit"], m["unit"])
            self.assertTrue(
                any(words[:2] == ["metric", m["name"]] and m["unit"] in words
                    for words in text),
                f"{workload}: no text line for {m['name']} [{m['unit']}]")

    def test_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(w, 0, BENCH["end_to_end"])

    def test_per_layer(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(w, 1, BENCH["per_layer"])


class Inputs(unittest.TestCase):
    def dump(self, workload, seed):
        code, out = bench("--workload", workload, "--seed", str(seed), "--dump-inputs", "200")
        self.assertEqual(code, 0)
        return out

    def test_same_seed_same_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = self.dump(w, 7)
                self.assertEqual(first, self.dump(w, 7))
                self.assertNotEqual(first, self.dump(w, 8))
                self.assertEqual(len(first.splitlines()), 400)


class NegativeControl(unittest.TestCase):
    def test_wrong_total_fails(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, out = bench("--workload", w, "--seed", "3", "--seconds", "1",
                                  "--trace", "0", "--wrong-total")
                self.assertNotEqual(code, 0, out)
                self.assertFalse(result(out)["correct"])
                self.assertIn("CHECK FAILED", out)


if __name__ == "__main__":
    unittest.main(verbosity=2)
