#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark; takes under a minute.

    python3 bench/selftest.py

It runs every workload of BENCHMARK.json on a small corpus for a fraction
of a second, traced and untraced, and checks that each run reports every
metric of BENCHMARK.json with its unit and no failure, and that corrupted
outputs, and passes whose outputs differ, are counted as failed.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

TINY = {"paper": 1, "narrow-long": 2}  # corpus scale of the tiny runs
# Two passes and two fresh interpreters are enough to run every step.
TINY_WORKLOADS = {
    name: dataclasses.replace(w, passes=2) for name, w in workloads.WORKLOADS.items()
}


class SelfTest(unittest.TestCase):
    @mock.patch.object(run, "COLD_STARTS", 2)
    @mock.patch.object(workloads, "WORKLOADS", TINY_WORKLOADS)
    def test_every_metric_with_its_unit(self):
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            expected = {m["name"]: m["unit"] for m in run.SPEC[group]}
            for name in (w["name"] for w in run.SPEC["workloads"]):
                with self.subTest(workload=name, trace=trace):
                    result, report = run.run(name, 0, 0.1, trace, scale=TINY[name])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertEqual(report["problems"], [])
                    self.assertTrue(result["correct"])
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()}, expected
                    )
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], float)

    def test_passes_for_slowest_are_fixed_in_number(self):
        self.assertEqual(run.spread_evenly(3, 8), [0, 1, 2])
        self.assertEqual(run.spread_evenly(8, 8), list(range(8)))
        self.assertEqual(run.spread_evenly(30, 4), [0, 10, 19, 29])
        for count in range(20, 60):
            chosen = run.spread_evenly(count, 20)
            self.assertEqual(len(set(chosen)), 20)
            self.assertEqual((chosen[0], chosen[-1]), (0, count - 1))

    def test_corrupted_output_fails(self):
        cli = run.import_cli()
        tally = run.Tally()
        corpus = workloads.corpus("paper", 0, 1)
        outputs = [run.perform(cli, r)[1:] for r in corpus]
        tally.verify_pass(corpus, outputs)
        self.assertEqual(tally.failed, 0)

        # A wrong determinant in one report.
        i = next(i for i, r in enumerate(corpus) if r.kind == "invariants")
        code, out = outputs[i]
        report = json.loads(out)
        report["determinant"] += 2
        corrupted = list(outputs)
        corrupted[i] = (code, json.dumps(report))
        tally = run.Tally()
        tally.verify_pass(corpus, corrupted)
        self.assertEqual(tally.failed, 1)

        # An unexpected exit code, and unreadable output.
        tally = run.Tally()
        tally.verify(corpus[0], 1, outputs[0][1])
        tally.verify(corpus[i], 0, out[: len(out) // 2])
        self.assertEqual(tally.failed, 2)

        # A pass whose outputs all check but whose digest is not the pinned one.
        tally = run.Tally("0" * 64)
        tally.verify_pass(corpus, outputs)
        self.assertEqual(tally.failed, len(corpus))

        # Without a pinned digest, a second pass whose outputs all check but
        # differ from the first pass's: one more element in an SVG drawing.
        i = next(i for i, r in enumerate(corpus) if r.kind == "construct-svg")
        code, out = outputs[i]
        changed = list(outputs)
        changed[i] = (code, re.sub(r"</svg>\s*$", "<g/></svg>", out))
        self.assertNotEqual(changed[i], outputs[i])
        tally = run.Tally()
        tally.verify_pass(corpus, outputs)
        tally.verify_pass(corpus, changed)
        self.assertEqual(tally.failed, len(corpus))
        self.assertEqual(tally.attempted, 2 * len(corpus))

    def test_oracles(self):
        import checks

        word = workloads.Word(3, (1, -2, 1, -2))  # figure-eight knot
        self.assertEqual(checks.walk(word), (1, ((0,),)))
        hopf = workloads.Word(2, (1, 1))
        self.assertEqual(checks.walk(hopf), (2, ((0, 1), (1, 0))))
        self.assertEqual(checks.polynomial_problems({0: 1, 1: -3, 2: 1}, 5, 1), [])
        self.assertTrue(checks.polynomial_problems({0: 1, 1: -3, 2: 2}, 5, 1))
        self.assertTrue(checks.polynomial_problems({0: 1, 1: -2, 2: 1}, 4, 1))


if __name__ == "__main__":
    unittest.main()
