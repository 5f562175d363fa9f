#!/usr/bin/env python3
"""Fixture-driven tests for tools/check_bench_regression.py.

The regression gate guards every committed BENCH_table4.json
replacement (tools/run_benchmarks.sh), so its failure paths need the
same proof-of-life the lint checks get: a fixture that trips each path
and an assertion on the exit code and diagnostic. Fixtures live in
tests/regression_fixtures/.

Run directly or via ctest (check_bench_regression_selftest).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE = os.path.join(REPO, "tools", "check_bench_regression.py")
FIXTURES = os.path.join(REPO, "tests", "regression_fixtures")


def run_gate(*args):
    proc = subprocess.run(
        [sys.executable, GATE, *args],
        capture_output=True, text=True, cwd=REPO)
    return proc.returncode, proc.stdout, proc.stderr


def fixture(name):
    return os.path.join(FIXTURES, name)


GOOD = fixture("snapshot_good.json")


class PassingRun(unittest.TestCase):
    def test_identical_snapshots_pass(self):
        rc, out, err = run_gate(GOOD, GOOD)
        self.assertEqual(rc, 0, f"expected PASS\n{out}{err}")
        self.assertIn("regression gate: PASS", out)
        self.assertNotIn("REGRESSION:", err)


class UsageErrors(unittest.TestCase):
    """Exit 2 (usage), never exit 1 (verdict), for unusable inputs."""

    def test_wrong_arg_count(self):
        rc, _, err = run_gate(GOOD)
        self.assertEqual(rc, 2)
        self.assertIn("Usage:", err)

    def test_missing_file(self):
        rc, _, err = run_gate(GOOD, fixture("does_not_exist.json"))
        self.assertEqual(rc, 2)
        self.assertIn("cannot read fresh snapshot", err)

    def test_malformed_json_is_diagnosed_not_a_traceback(self):
        rc, _, err = run_gate(GOOD, fixture("malformed.json"))
        self.assertEqual(rc, 2)
        self.assertIn("malformed JSON in fresh snapshot", err)
        self.assertNotIn("Traceback", err)

    def test_malformed_committed_side_diagnosed_too(self):
        rc, _, err = run_gate(fixture("malformed.json"), GOOD)
        self.assertEqual(rc, 2)
        self.assertIn("malformed JSON in committed snapshot", err)


class MissingSection(unittest.TestCase):
    def test_lost_sections_fail_loudly(self):
        rc, _, err = run_gate(GOOD, fixture("fresh_missing_section.json"))
        self.assertEqual(rc, 1)
        self.assertIn("serving section missing from the fresh run", err)
        self.assertIn("serving_faults missing from the fresh run", err)
        self.assertIn("serving_obs missing from the fresh run", err)


class MissingRowField(unittest.TestCase):
    """A keyed row lacking a gated field or its key is a named
    failure, not a KeyError traceback."""

    def setUp(self):
        with open(GOOD) as f:
            fresh = json.load(f)
        del fresh["solver_comparison"]["instances"][0]["objective"]
        del fresh["table4"][0]["status"]
        del fresh["fig6_policies"][0]["policy"]
        self.tmp = tempfile.TemporaryDirectory()
        path = os.path.join(self.tmp.name, "fresh_missing_field.json")
        with open(path, "w") as f:
            json.dump(fresh, f)
        self.rc, _, self.err = run_gate(GOOD, path)

    def tearDown(self):
        self.tmp.cleanup()

    def test_named_failure_not_a_traceback(self):
        self.assertEqual(self.rc, 1)
        self.assertNotIn("Traceback", self.err)
        self.assertIn("instance vit-8b: field 'objective' missing "
                      "from the fresh run", self.err)
        self.assertIn("table4 ViT-8B: field 'status' missing from the "
                      "fresh run", self.err)

    def test_row_without_its_key(self):
        self.assertIn("fig6 policy #0: field 'policy' missing from the "
                      "fresh run", self.err)
        self.assertIn("fig6 policy fifo: missing from the fresh run",
                      self.err)


class DuplicateRowKey(unittest.TestCase):
    """A repeated row key is a named failure: keeping only one of the
    rows would let a regressed row hide behind a good one."""

    def setUp(self):
        with open(GOOD) as f:
            fresh = json.load(f)
        rows = fresh["fig6_policies"]
        regressed = dict(rows[0], makespan_ms=rows[0]["makespan_ms"] * 5)
        rows.insert(0, regressed)
        self.tmp = tempfile.TemporaryDirectory()
        path = os.path.join(self.tmp.name, "fresh_duplicate_row.json")
        with open(path, "w") as f:
            json.dump(fresh, f)
        self.rc, self.out, self.err = run_gate(GOOD, path)

    def tearDown(self):
        self.tmp.cleanup()

    def test_duplicate_key_fails(self):
        self.assertEqual(self.rc, 1, f"expected FAIL\n{self.out}")
        self.assertIn("fig6 policy fifo: duplicate row in the fresh run",
                      self.err)
        self.assertNotIn("regression gate: PASS", self.out)


class RegressionBeyondBound(unittest.TestCase):
    """Each tolerance gate fires on the regressed fixture."""

    def setUp(self):
        self.rc, self.out, self.err = run_gate(
            GOOD, fixture("fresh_regressed.json"))

    def test_exit_code_and_prefix(self):
        self.assertEqual(self.rc, 1)
        self.assertIn("REGRESSION:", self.err)

    def test_propagations_grew(self):
        self.assertIn("instance vit-8b: propagations grew "
                      "2500000 -> 2600000", self.err)

    def test_objective_worsened(self):
        self.assertIn("instance vit-8b: objective worsened", self.err)

    def test_table4_status_worsened(self):
        self.assertIn("table4 ViT-8B: status worsened", self.err)

    def test_memory_aware_replans_went_dead(self):
        self.assertIn("no re-plans", self.err)

    def test_serving_p95_and_goodput(self):
        self.assertIn("serving policy deadline: p95 worsened", self.err)
        self.assertIn("serving policy deadline: goodput dropped",
                      self.err)

    def test_fault_accounting_and_crash_ratio(self):
        self.assertIn("neither completed nor shed", self.err)
        self.assertIn("mid-run crash now costs more than 35%", self.err)

    def test_admission_delta_gone_nonpositive(self):
        self.assertIn("no longer strictly beats", self.err)

    def test_sharding_qps_efficiency_and_overlap(self):
        self.assertIn("sharding point 4dev/on: max sustainable QPS",
                      self.err)
        self.assertIn("scaling efficiency at 4 devices", self.err)
        self.assertIn("cross-request overlap no longer improves",
                      self.err)

    def test_obs_overhead_noise_outcome_and_dead_trace(self):
        self.assertIn("tracing-on overhead exceeds 10%", self.err)
        self.assertIn("tracing-off arms disagree by more than 10%",
                      self.err)
        self.assertIn("tracing must observe, never perturb", self.err)
        self.assertIn("recorded no events", self.err)

    def test_within_tolerance_rows_not_flagged(self):
        # The llama2-13b row, the vit-8b decision count and the
        # 1-device QPS are unchanged in the regressed fixture; the gate
        # must not flag them.
        self.assertNotIn("llama2-13b", self.err)
        self.assertNotIn("vit-8b: decisions grew", self.err)
        self.assertNotIn("sharding point 1dev/on", self.err)


if __name__ == "__main__":
    unittest.main(verbosity=2)
