#!/usr/bin/env python3
"""Tests for tools/check_bench_regression.py.

The regression gate guards every committed BENCH_table4.json
replacement (tools/run_benchmarks.sh), so every row of its RULES and
BOUNDS tables needs proof of life. The failing cases are generated
from the tables: each RULES row worsens its field in one row of
tests/regression_fixtures/snapshot_good.json just past its tolerance
(one named failure) and exactly to it (a pass); each BOUNDS row
breaks its bound (one named failure).

Run directly or via ctest (check_bench_regression_selftest).
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "tools"))
from check_bench_regression import (  # noqa: E402
    ALL, BOUNDS, RULES, STATUS_ORDER, show)

GATE = os.path.join(REPO, "tools", "check_bench_regression.py")
FIXTURES = os.path.join(REPO, "tests", "regression_fixtures")
GOOD = os.path.join(FIXTURES, "snapshot_good.json")
MALFORMED = os.path.join(FIXTURES, "malformed.json")
SNAPSHOT = os.path.join(REPO, "BENCH_table4.json")


def run_gate(*args):
    proc = subprocess.run(
        [sys.executable, GATE, *args],
        capture_output=True, text=True, cwd=REPO)
    return proc.returncode, proc.stdout, proc.stderr


def good():
    with open(GOOD) as f:
        return json.load(f)


def gate_fresh(snap):
    """Gate @snap as the fresh run against snapshot_good.json."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fresh.json")
        with open(path, "w") as f:
            json.dump(snap, f)
        return run_gate(GOOD, path)


def rows_at(snap, path):
    node = snap
    for part in path.split("."):
        node = node[part]
    return node if isinstance(node, list) else [node]


def tolerance_edge(was, worse, tol):
    """(the worst value a RULES row passes, the next value past it)."""
    if worse == "later":
        return was, STATUS_ORDER[STATUS_ORDER.index(was) + 1]
    if isinstance(tol, str):
        frac = float(tol.rstrip("%")) / 100
        at = was * (1 + frac) if worse == "higher" else was * (1 - frac)
    else:
        at = was + tol if worse == "higher" else was - tol
    return at, math.nextafter(
        at, math.inf if worse == "higher" else -math.inf)


# The closest value that breaks each BOUNDS operator.
BREAK = {">": lambda v: v, ">=": lambda v: math.nextafter(v, -math.inf),
         "<=": lambda v: math.nextafter(v, math.inf), "==": lambda v: not v}


class GeneratedFromTables(unittest.TestCase):
    def assert_one_failure(self, snap, *names):
        rc, out, err = gate_fresh(snap)
        lines = [l for l in err.splitlines()
                 if l.startswith("REGRESSION:")]
        self.assertEqual(rc, 1, f"expected FAIL\n{out}{err}")
        self.assertEqual(len(lines), 1, err)
        for name in names:
            self.assertIn(name, lines[0])

    def test_every_rule_fails_just_past_its_tolerance(self):
        for path, keys, field, worse, tol in RULES:
            with self.subTest(path=path, field=field):
                snap = good()
                row = rows_at(snap, path)[-1]
                at, past = tolerance_edge(row[field], worse, tol)
                row[field] = past
                self.assert_one_failure(
                    snap, path, field,
                    *(f"{k}={show(row[k])}" for k in keys))
                row[field] = at
                rc, out, err = gate_fresh(snap)
                self.assertEqual(rc, 0, f"expected PASS\n{out}{err}")

    def test_every_bound_fails_when_broken(self):
        for path, keys, want, field, op, value in BOUNDS:
            with self.subTest(path=path, field=field):
                snap = good()
                row = next(r for r in rows_at(snap, path)
                           if want is ALL or
                           tuple(r[k] for k in keys) == want)
                row[field] = BREAK[op](value)
                self.assert_one_failure(
                    snap, path, field,
                    *(f"{k}={show(row[k])}" for k in keys))


class PassingRun(unittest.TestCase):
    def test_identical_snapshots_pass(self):
        rc, out, err = run_gate(GOOD, GOOD)
        self.assertEqual(rc, 0, f"expected PASS\n{out}{err}")
        self.assertIn("regression gate: PASS", out)
        self.assertNotIn("REGRESSION:", err)

    def test_committed_snapshot_passes_against_itself(self):
        # Every table row finds its section, rows and field in the
        # committed snapshot, so a renamed one fails here.
        rc, out, err = run_gate(SNAPSHOT, SNAPSHOT)
        self.assertEqual(rc, 0, f"expected PASS\n{out}{err}")


class UsageErrors(unittest.TestCase):
    """Exit 2 (usage), never exit 1 (verdict), for unusable inputs."""

    def test_wrong_arg_count(self):
        rc, _, err = run_gate(GOOD)
        self.assertEqual(rc, 2)
        self.assertIn("Usage:", err)

    def test_missing_file(self):
        rc, _, err = run_gate(
            GOOD, os.path.join(FIXTURES, "does_not_exist.json"))
        self.assertEqual(rc, 2)
        self.assertIn("cannot read fresh snapshot", err)

    def test_malformed_json_is_diagnosed_not_a_traceback(self):
        rc, _, err = run_gate(GOOD, MALFORMED)
        self.assertEqual(rc, 2)
        self.assertIn("malformed JSON in fresh snapshot", err)
        self.assertNotIn("Traceback", err)

    def test_malformed_committed_side_diagnosed_too(self):
        rc, _, err = run_gate(MALFORMED, GOOD)
        self.assertEqual(rc, 2)
        self.assertIn("malformed JSON in committed snapshot", err)


class MissingSection(unittest.TestCase):
    def test_lost_sections_fail_loudly(self):
        snap = good()
        del snap["serving"], snap["serving_faults"]
        rc, _, err = gate_fresh(snap)
        self.assertEqual(rc, 1)
        self.assertIn("serving.policies: missing from the fresh run", err)
        self.assertIn("serving_faults.scenarios: missing from the fresh "
                      "run", err)
        self.assertIn("serving_faults: missing from the fresh run", err)


class MissingRowField(unittest.TestCase):
    """A keyed row lacking a gated field or its key is a named
    failure, not a KeyError traceback."""

    def setUp(self):
        snap = good()
        del snap["solver_comparison"]["instances"][0]["objective"]
        del snap["table4"][0]["status"]
        del snap["fig6_policies"][0]["policy"]
        self.rc, _, self.err = gate_fresh(snap)

    def test_named_failure_not_a_traceback(self):
        self.assertEqual(self.rc, 1)
        self.assertNotIn("Traceback", self.err)
        self.assertIn("solver_comparison.instances[name=vit-8b]: field "
                      "'objective' missing from the fresh run", self.err)
        self.assertIn("table4[model=ViT-8B]: field 'status' missing "
                      "from the fresh run", self.err)

    def test_row_without_its_key(self):
        self.assertIn("fig6_policies #0: key field 'policy' missing "
                      "from the fresh run", self.err)
        self.assertIn("fig6_policies[policy=fifo]: row missing from the "
                      "fresh run", self.err)


class DuplicateRowKey(unittest.TestCase):
    """A repeated row key is a named failure: keeping only one of the
    rows would let a regressed row hide behind a good one."""

    def test_duplicate_key_fails(self):
        snap = good()
        rows = snap["fig6_policies"]
        rows.insert(0, dict(rows[0], makespan_ms=rows[0]["makespan_ms"] * 5))
        rc, out, err = gate_fresh(snap)
        self.assertEqual(rc, 1, f"expected FAIL\n{out}")
        self.assertIn("fig6_policies[policy=fifo]: duplicate row in the "
                      "fresh run", err)
        self.assertNotIn("regression gate: PASS", out)


if __name__ == "__main__":
    unittest.main(verbosity=2)
