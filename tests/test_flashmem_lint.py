#!/usr/bin/env python3
"""Self-test for tools/flashmem_lint.py against the fixture corpus.

Each check is proven live: a deliberately-violating fixture must trip
exactly that check (at the expected granularity), and the suppressed
fixtures must silence every finding.  Invalid suppressions (missing
justification, unknown check name) must themselves be fatal.

Run directly or via ctest (flashmem_lint_selftest).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(REPO, "tools", "flashmem_lint.py")
FIXTURES = os.path.join(REPO, "tests", "lint_fixtures")


def run_lint(*args):
    proc = subprocess.run(
        [sys.executable, LINT, *args],
        capture_output=True, text=True, cwd=REPO)
    return proc.returncode, proc.stdout, proc.stderr


def fixture(name):
    return os.path.join(FIXTURES, name)


class ViolationFires(unittest.TestCase):
    """Each deliberately-violating fixture trips its check and only
    its check."""

    CASES = {
        "violate_unordered_iteration.cc":
            ("no-unordered-iteration", 1),
        "violate_wall_clock.cc": ("no-wall-clock", 4),
        "violate_pointer_order.cc": ("no-pointer-order", 3),
        "violate_uninitialized_member.hh":
            ("uninitialized-member", 4),
        "violate_float_accumulation.cc":
            ("float-accumulation-order", 1),
        "violate_raw_cast.cc": ("no-raw-cast", 2),
        "violate_cross_thread_state.cc": ("cross-thread-state", 3),
    }

    def test_each_check_fires(self):
        for name, (check, expected_count) in self.CASES.items():
            with self.subTest(fixture=name):
                rc, out, _ = run_lint(fixture(name))
                self.assertEqual(rc, 1,
                                 f"{name}: expected findings, got "
                                 f"rc=0\n{out}")
                lines = [ln for ln in out.splitlines()
                         if f"[{check}]" in ln]
                self.assertEqual(
                    len(lines), expected_count,
                    f"{name}: expected {expected_count} "
                    f"[{check}] findings\n{out}")
                other = [ln for ln in out.splitlines()
                         if "[" in ln and f"[{check}]" not in ln]
                self.assertEqual(
                    other, [],
                    f"{name}: unexpected extra findings\n{out}")

    def test_finding_carries_file_and_line(self):
        rc, out, _ = run_lint(fixture("violate_wall_clock.cc"))
        self.assertEqual(rc, 1)
        first = out.splitlines()[0]
        path, line, rest = first.split(":", 2)
        self.assertTrue(path.endswith("violate_wall_clock.cc"))
        self.assertTrue(line.isdigit() and int(line) > 0, first)
        self.assertIn("[no-wall-clock]", rest)


class SuppressionWorks(unittest.TestCase):
    def test_justified_suppressions_silence_all_findings(self):
        for name in ("suppressed_clean.cc", "suppressed_clean.hh"):
            with self.subTest(fixture=name):
                rc, out, err = run_lint(fixture(name))
                self.assertEqual(rc, 0,
                                 f"{name}: expected clean exit\n"
                                 f"{out}{err}")
                self.assertIn("0 finding(s)", err)

    def test_suppressed_findings_visible_in_verbose(self):
        rc, out, _ = run_lint(fixture("suppressed_clean.cc"), "-v")
        self.assertEqual(rc, 0)
        self.assertIn("suppressed [no-unordered-iteration]", out)
        self.assertIn("suppressed [no-wall-clock]", out)

    def test_missing_justification_is_fatal(self):
        rc, out, _ = run_lint(fixture("bad_suppression.cc"))
        self.assertEqual(rc, 1)
        self.assertIn("[bad-suppression]", out)
        self.assertIn("without a justification", out)

    def test_unknown_check_name_is_fatal(self):
        rc, out, _ = run_lint(fixture("bad_suppression.cc"))
        self.assertEqual(rc, 1)
        self.assertIn("unknown check name", out)

    def test_invalid_suppression_does_not_silence(self):
        # The underlying wall-clock findings must survive an invalid
        # suppression attempt.
        rc, out, _ = run_lint(fixture("bad_suppression.cc"))
        self.assertEqual(rc, 1)
        self.assertIn("[no-wall-clock]", out)


class TestOnlyApi(unittest.TestCase):
    """test-only-api over a fixture source tree of its own: a header
    under src/, callers under tests/, bench/ and perfbench/."""

    TREE = fixture("test_only_api")

    def lint_api(self, tree):
        return run_lint(os.path.join(tree, "src", "api.hh"), "-v")

    def test_fires_on_function_only_tests_call(self):
        rc, out, _ = self.lint_api(self.TREE)
        self.assertEqual(rc, 1, out)
        found = [ln for ln in out.splitlines()
                 if "[test-only-api]" in ln and "suppressed" not in ln]
        self.assertEqual(len(found), 1, out)
        self.assertIn("api.hh:9:", found[0])
        self.assertIn("'onlyTestsCall'", found[0])

    def test_quiet_when_a_non_test_file_calls_it(self):
        # bench/ calls benchCalls(), perfbench/ perfbenchCalls(), and
        # api.cc ownFileCalls(); none of them is reported.
        rc, out, _ = self.lint_api(self.TREE)
        for name in ("benchCalls", "perfbenchCalls", "ownFileCalls",
                     "step", "bump"):
            self.assertNotIn(f"'{name}'", out)

    def test_perfbench_callers_count(self):
        with tempfile.TemporaryDirectory() as tmp:
            tree = os.path.join(tmp, "tree")
            shutil.copytree(self.TREE, tree)
            shutil.rmtree(os.path.join(tree, "perfbench"))
            rc, out, _ = self.lint_api(tree)
        self.assertEqual(rc, 1, out)
        self.assertIn("'perfbenchCalls'", out)

    def test_justified_suppression_silences(self):
        rc, out, _ = self.lint_api(self.TREE)
        self.assertIn("api.hh:20: suppressed [test-only-api]", out)
        self.assertNotIn("'count'", out)

    def test_unjustified_suppression_is_reported(self):
        rc, out, _ = run_lint(
            os.path.join(self.TREE, "src", "unjustified.hh"))
        self.assertEqual(rc, 1, out)
        self.assertIn("[bad-suppression]", out)
        self.assertIn("without a justification", out)
        self.assertIn("[test-only-api] 'alsoOnlyTestsCall'", out)


class CliBehaviour(unittest.TestCase):
    def test_list_checks(self):
        rc, out, _ = run_lint("--list-checks")
        self.assertEqual(rc, 0)
        for check in ("no-unordered-iteration", "no-wall-clock",
                      "no-pointer-order", "uninitialized-member",
                      "float-accumulation-order", "no-raw-cast",
                      "cross-thread-state", "test-only-api"):
            self.assertIn(check, out)

    def test_check_subset_filters(self):
        rc, out, _ = run_lint(
            fixture("violate_wall_clock.cc"),
            "--checks", "no-pointer-order")
        self.assertEqual(rc, 0, out)

    def test_unknown_check_rejected(self):
        rc, _, err = run_lint(fixture("violate_wall_clock.cc"),
                              "--checks", "no-such-check")
        self.assertEqual(rc, 2)
        self.assertIn("unknown checks", err)

    def test_wallclock_whitelist(self):
        rc, out, _ = run_lint(
            fixture("violate_wall_clock.cc"),
            "--wallclock-whitelist", "tests/lint_fixtures/")
        self.assertEqual(rc, 0, out)

    def test_wallclock_deny_overrides_whitelist(self):
        """The deny list wins even when a whitelist entry covers the
        same path — this is how src/obs/ stays simulation-clock-only
        no matter how the whitelist evolves."""
        rc, out, _ = run_lint(
            fixture("violate_wall_clock.cc"),
            "--wallclock-whitelist", "tests/lint_fixtures/",
            "--wallclock-deny", "tests/lint_fixtures/")
        self.assertEqual(rc, 1, out)
        self.assertIn("[no-wall-clock]", out)

    def test_wallclock_default_deny_covers_obs(self):
        """A wall-clock read under src/obs/ must flag under the
        default deny list, even with a whitelist naming src/. The
        probe lives in a scratch tree, not the repo's src/obs/, where
        the concurrently running flashmem_lint ctest would read it."""
        with tempfile.TemporaryDirectory() as tmp:
            victim = os.path.join(tmp, "src", "obs",
                                  "wallclock_probe_selftest.cc")
            os.makedirs(os.path.dirname(victim))
            with open(victim, "w", encoding="utf-8") as f:
                f.write("#include <chrono>\n"
                        "auto now() { return std::chrono::"
                        "system_clock::now(); }\n")
            rc, out, _ = run_lint(victim, "--wallclock-whitelist", "src/")
            self.assertEqual(rc, 1, out)
            self.assertIn("[no-wall-clock]", out)

    def test_exclude(self):
        rc, _, err = run_lint(FIXTURES, "--exclude", "lint_fixtures")
        self.assertEqual(rc, 2)
        self.assertIn("no files matched", err)


class WholeTreeGate(unittest.TestCase):
    def test_repo_tree_is_clean(self):
        """The same invocation ctest runs: zero unsuppressed findings
        over src/, bench/, tests/, tools/, examples/ (fixtures
        excluded)."""
        rc, out, err = run_lint("src", "bench", "tests", "tools",
                                "examples", "--exclude", "lint_fixtures")
        self.assertEqual(rc, 0,
                         f"tree has unsuppressed findings:\n{out}{err}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
