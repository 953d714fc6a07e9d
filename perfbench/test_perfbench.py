#!/usr/bin/env python3
"""Self-test of the qpinn benchmark on short traced tdse_serial runs.

    python3 perfbench/test_perfbench.py

Runs `perfbench/run.py --workload tdse_serial --seed 7 --seconds 1 --trace 1`
twice (about a minute in all, after the first build) and checks that:
  * both runs pass their correctness checks;
  * every exact count (plan thunks, arena bytes, pool allocations per epoch,
    all-reduces, flushes, L-BFGS iterations) repeats exactly for the seed;
  * the layer sum reconciles with the untraced steady-epoch median: the
    unattributed remainder is within the op_ms_p50 bound of BENCHMARK.json.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_COUNTS = [
    "autodiff.plan_thunks",
    "autodiff.plan_arena_bytes",
    "tensor.pool_allocs_per_epoch",
    "dist.allreduces",
    "serve.flushes",
    "optim.lbfgs_iters",
]


def traced_run():
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           "tdse_serial", "--seed", "7", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    untraced = done.stdout.split("end-to-end (traced):")[0]
    epoch = re.search(r"op_ms_p50 = ([0-9.eE+-]+) ms", untraced)
    return done.returncode, result, float(epoch.group(1)), done.stdout


def bound_of(name):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == name)


class TracedSerialRun(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = [traced_run(), traced_run()]

    def test_runs_are_correct(self):
        for code, result, _, out in self.runs:
            self.assertEqual(code, 0, out)
            self.assertTrue(result["correct"], out)
            self.assertEqual(result["failed"], 0, out)

    def test_exact_counts_repeat(self):
        first, second = (r[1]["metrics"] for r in self.runs)
        for name in EXACT_COUNTS:
            self.assertEqual(first[name]["value"], second[name]["value"], name)

    def test_layer_sum_reconciles_with_epoch(self):
        bound = bound_of("op_ms_p50")
        for _, result, epoch_ms, _ in self.runs:
            remainder = result["metrics"]["core.step_unattributed_ms"]["value"]
            self.assertLessEqual(abs(remainder), bound * epoch_ms,
                                 "remainder %.3f ms of a %.3f ms epoch"
                                 % (remainder, epoch_ms))


if __name__ == "__main__":
    unittest.main()
