#!/usr/bin/env python3
"""Tests for tools/perfbench_pairs.py's statistics.

The pair comparison decides whether a change may claim a gain and
whether a metric got worse than its BENCHMARK.json bound, so its
quartiles, wins and verdicts are checked on canned results here, and
so is the check that a kept parent export holds the requested commit;
the benchmark runs and git itself are not.

Run directly or via ctest (perfbench_pairs_selftest).
"""

import os
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "tools"))
from perfbench_pairs import (  # noqa: E402
    EXPORT_STAMP, ensure_export, format_rows, quartiles, summarize,
    worse_share)

DRAIN = {"name": "drain_s", "unit": "ref_s", "better": "lower",
         "bound": 0.25}
RPS = {"name": "serve_rps", "unit": "requests/ref_s", "better": "higher",
       "bound": 0.25}
SHED = {"name": "shed_frac", "unit": "fraction", "better": "lower",
        "bound": 0.25}


def pairs_of(name, parent, change):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


class Quartiles(unittest.TestCase):
    def test_odd_and_even_counts(self):
        self.assertEqual(quartiles([3, 1, 2]), (1.5, 2, 2.5))
        self.assertEqual(quartiles([4, 1, 3, 2]), (1.75, 2.5, 3.25))
        self.assertEqual(quartiles(range(1, 11)), (3.25, 5.5, 7.75))

    def test_single_value(self):
        self.assertEqual(quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            quartiles([])


class WorseShare(unittest.TestCase):
    def test_direction(self):
        self.assertAlmostEqual(worse_share(2.0, 2.5, "lower"), 0.25)
        self.assertAlmostEqual(worse_share(2.0, 1.0, "lower"), -0.5)
        self.assertAlmostEqual(worse_share(4.0, 3.0, "higher"), 0.25)
        self.assertAlmostEqual(worse_share(4.0, 5.0, "higher"), -0.25)

    def test_zero_parent(self):
        self.assertEqual(worse_share(0.0, 0.0, "lower"), 0.0)
        self.assertEqual(worse_share(0.0, 0.1, "lower"), float("inf"))
        self.assertEqual(worse_share(0.0, 0.1, "higher"), float("-inf"))


class Summarize(unittest.TestCase):
    PARENT = [0.18, 0.19, 0.20, 0.17, 0.21, 0.19, 0.18, 0.20, 0.22, 0.19]

    def row(self, metric, parent, change):
        (row,) = summarize([metric], pairs_of(metric["name"], parent,
                                               change))
        return row

    def test_clear_gain(self):
        change = [0.10, 0.11, 0.10, 0.12, 0.11, 0.10, 0.11, 0.25, 0.10,
                  0.11]
        r = self.row(DRAIN, self.PARENT, change)
        self.assertEqual(r["pairs"], 10)
        self.assertEqual(r["wins"], 9)  # seed 8 loses
        self.assertAlmostEqual(r["parent"][1], 0.19)
        self.assertAlmostEqual(r["change"][1], 0.11)
        self.assertTrue(r["gain"])
        self.assertFalse(r["over_bound"])

    def test_eight_wins_is_no_gain(self):
        change = [0.10] * 8 + [0.30, 0.30]
        r = self.row(DRAIN, self.PARENT, change)
        self.assertEqual(r["wins"], 8)
        self.assertFalse(r["gain"])

    def test_shift_inside_the_parent_spread_is_no_gain(self):
        change = [p - 0.001 for p in self.PARENT]
        r = self.row(DRAIN, self.PARENT, change)
        self.assertEqual(r["wins"], 10)
        self.assertLess(abs(r["change"][1] - r["parent"][1]),
                        r["parent"][2] - r["parent"][0])
        self.assertFalse(r["gain"])

    def test_ties_are_not_wins(self):
        r = self.row(SHED, [0.1] * 10, [0.1] * 10)
        self.assertEqual(r["wins"], 0)
        self.assertEqual(r["worse"], 0.0)
        self.assertFalse(r["over_bound"])

    def test_worse_than_bound_and_exactly_at_it(self):
        parent = [100.0] * 10
        over = self.row(RPS, parent, [74.0] * 10)
        self.assertTrue(over["over_bound"])
        at = self.row(RPS, parent, [75.0] * 10)
        self.assertFalse(at["over_bound"])

    def test_higher_is_better_wins(self):
        r = self.row(RPS, [100.0] * 10, [120.0] * 9 + [90.0])
        self.assertEqual(r["wins"], 9)
        self.assertTrue(r["gain"])

    def test_metric_missing_from_a_side_is_skipped(self):
        pairs = [({"drain_s": 1.0}, {}), ({"drain_s": 1.0},
                                          {"drain_s": 0.5})]
        (r,) = summarize([DRAIN, RPS], pairs)
        self.assertEqual(r["name"], "drain_s")
        self.assertEqual(r["pairs"], 1)

    def test_fewer_than_ten_pairs_is_no_gain(self):
        r = self.row(DRAIN, self.PARENT[:9], [0.10] * 9)
        self.assertEqual(r["wins"], 9)
        self.assertFalse(r["gain"])

    def test_report_names_each_verdict(self):
        rows = summarize([DRAIN, RPS], [
            ({"drain_s": 0.2, "serve_rps": 100.0},
             {"drain_s": 0.1, "serve_rps": 50.0})] * 10)
        text = format_rows("multi_dnn_churn", rows)
        self.assertIn("multi_dnn_churn (10 pairs)", text)
        drain, rps = text.splitlines()[2:]
        self.assertIn("0.2 [0.2, 0.2]", drain)
        self.assertIn("10/10", drain)
        self.assertIn("gain", drain)
        self.assertIn("WORSE than bound 0.25 (+50.0%)", rps)


class EnsureExport(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dest = os.path.join(self.tmp.name, "parent")
        self.extracted = []

    def tearDown(self):
        self.tmp.cleanup()

    def extract(self, commit, dest):
        self.extracted.append(commit)
        with open(os.path.join(dest, "BENCHMARK.json"), "w") as f:
            f.write(commit)

    def test_exports_once_and_reuses_the_same_commit(self):
        ensure_export("aaa", self.dest, self.extract)
        with open(os.path.join(self.dest, EXPORT_STAMP)) as f:
            self.assertEqual(f.read(), "aaa\n")
        ensure_export("aaa", self.dest, self.extract)
        self.assertEqual(self.extracted, ["aaa"])

    def test_refuses_an_export_of_another_commit(self):
        ensure_export("aaa", self.dest, self.extract)
        with self.assertRaisesRegex(ValueError, "aaa, not bbb"):
            ensure_export("bbb", self.dest, self.extract)
        self.assertEqual(self.extracted, ["aaa"])

    def test_refuses_an_unstamped_directory(self):
        # An export written before the stamp existed, or cut short.
        os.makedirs(self.dest)
        self.extract("aaa", self.dest)
        with self.assertRaisesRegex(ValueError, "no export stamp"):
            ensure_export("aaa", self.dest, self.extract)

    def test_exports_into_an_empty_directory(self):
        os.makedirs(self.dest)
        ensure_export("aaa", self.dest, self.extract)
        self.assertEqual(self.extracted, ["aaa"])


if __name__ == "__main__":
    unittest.main()
