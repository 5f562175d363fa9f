#!/usr/bin/env python3
"""Regression gate over BENCH_table4.json snapshots.

Usage: check_bench_regression.py OLD.json NEW.json

OLD is the committed snapshot and NEW a fresh run. The gate's whole
policy is the two tables below. A RULES row fails when a fresh row is
worse than its committed row by more than the tolerance; a BOUNDS row
fails when the fresh run breaks a fixed bound. Every table row also
owns its coverage: a missing or empty section, a missing row, key
field or gated field, and a repeated row key each fail by name.

Exit status: 0 on PASS, 1 with one REGRESSION line per failure on
stderr, 2 on an unusable input. tools/run_benchmarks.sh runs the gate
before it replaces the snapshot; regenerate the snapshot with
--no-gate when the schema changes on purpose.
"""

import json
import operator
import sys

# RULES: (rows path, key fields, field, worse when, tolerance). A rows
# path is a dotted path to a list of rows, or to one object (a single
# row without key fields); key fields name a row across snapshots.
# Worse when: "higher", "lower", or "later" in STATUS_ORDER. A number
# tolerance is an absolute margin (0 is exact), "N%" is N percent of
# the committed value.
RULES = [
    ("solver_comparison.instances", ("name",), "objective", "higher", 0),
    ("solver_comparison.instances", ("name",), "decisions", "higher", 0),
    ("solver_comparison.instances", ("name",), "propagations", "higher",
     0),
    ("table4", ("model",), "status", "later", 0),
    ("fig6_policies", ("policy",), "makespan_ms", "higher", "10%"),
    ("fig6_policies", ("policy",), "mean_latency_ms", "higher", "10%"),
    ("serving.policies", ("policy",), "p95_ms", "higher", "10%"),
    ("serving.policies", ("policy",), "goodput", "lower", 0.02),
    ("serving.policies", ("policy",), "max_sustainable_qps", "lower",
     "10%"),
    ("serving_faults.scenarios", ("scenario",), "goodput", "lower", 0.02),
    ("serving_faults.scenarios", ("scenario",), "p99_ms", "higher",
     "10%"),
    ("serving_admission.scenarios", ("scenario",), "goodput", "lower",
     0.02),
    ("serving_admission.scenarios", ("scenario",), "p99_ms", "higher",
     "10%"),
    ("serving_sharding.scaling", ("devices", "overlap"),
     "max_sustainable_qps", "lower", "10%"),
]

# BOUNDS: (rows path, key fields, row, field, operator, value) on the
# fresh run. Row is the key of the one row checked, or ALL.
ALL = None
BOUNDS = [
    ("fig6_policies", ("policy",), ("memory-aware",), "replans", ">", 0),
    ("serving_faults.scenarios", ("scenario",), ALL,
     "accounting_complete", "==", True),
    ("serving_admission.scenarios", ("scenario",), ALL,
     "accounting_complete", "==", True),
    ("serving_faults", (), ALL, "crash_goodput_ratio", ">=", 0.65),
    ("serving_admission", (), ALL, "arrival_goodput_delta", ">", 0.0),
    ("serving_admission", (), ALL, "cold_goodput_gap", "<=", 0.15),
    ("serving_sharding.overlap_demo", (), ALL, "makespan_speedup", ">",
     1.0),
]

STATUS_ORDER = ("OPTIMAL", "FEASIBLE", "UNKNOWN", "INFEASIBLE")
OPS = {">": operator.gt, ">=": operator.ge, "<=": operator.le,
       "==": operator.eq}
COMMITTED, FRESH = "the committed snapshot", "the fresh run"


def within(was, now, worse, tol):
    """Whether @now is no worse than @was beyond @tol."""
    if worse == "later":  # a status outside STATUS_ORDER ranks last
        was, now = (STATUS_ORDER.index(s) if s in STATUS_ORDER
                    else len(STATUS_ORDER) for s in (was, now))
        worse = "higher"
    if isinstance(tol, str):
        frac = float(tol.rstrip("%")) / 100
        limit = was * (1 + frac) if worse == "higher" else was * (1 - frac)
    else:
        limit = was + tol if worse == "higher" else was - tol
    return now <= limit if worse == "higher" else now >= limit


def checks():
    """Both tables as (rows path, key fields, row, field, sides,
    passes(*values), rule text); values come in the order of sides."""
    for path, keys, field, worse, tol in RULES:
        yield (path, keys, ALL, field, (COMMITTED, FRESH),
               lambda was, now, w=worse, t=tol: within(was, now, w, t),
               f"{worse} is worse, " + (f"tolerance {tol}" if tol
                                        else "exact"))
    for path, keys, row, field, op, value in BOUNDS:
        yield (path, keys, row, field, (FRESH,),
               lambda now, o=op, v=value: OPS[o](now, v),
               f"bound {op} {show(value)}")


def show(value):
    return value if isinstance(value, str) else json.dumps(value)


def where(path, keys, key):
    if not keys:
        return path
    return f"{path}[" + ", ".join(
        f"{k}={show(v)}" for k, v in zip(keys, key)) + "]"


def rows_at(snap, path, keys, side, fail):
    """{key: row} for the rows at @path, or None (after a failure)
    when the section is missing or empty."""
    node = snap
    for part in path.split("."):
        node = node.get(part) if isinstance(node, dict) else None
    rows = [node] if isinstance(node, dict) else node
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: missing from {side}")
        return None
    by_key = {}
    for i, row in enumerate(rows):
        lost = [k for k in keys if k not in row]
        if lost:
            fail(f"{path} #{i}: key field '{lost[0]}' missing from {side}")
            continue
        key = tuple(row[k] for k in keys)
        if key in by_key:
            fail(f"{where(path, keys, key)}: duplicate row in {side}")
            continue
        by_key[key] = row
    return by_key


def gate(snaps):
    """REGRESSION lines for @snaps (side label -> parsed snapshot)."""
    failures = []
    fail = failures.append
    for path, keys, want, field, sides, passes, rule in checks():
        tables = [rows_at(snaps[s], path, keys, s, fail) for s in sides]
        if None in tables:
            continue
        scope = [want] if want is not ALL else dict.fromkeys(
            k for rows in tables for k in rows)
        for key in scope:
            at = where(path, keys, key)
            values = []
            for side, rows in zip(sides, tables):
                if key not in rows:
                    fail(f"{at}: row missing from {side}")
                elif field not in rows[key]:
                    fail(f"{at}: field '{field}' missing from {side}")
                else:
                    values.append(rows[key][field])
            if len(values) == len(sides) and not passes(*values):
                fail(f"{at}: {field} "
                     f"{' -> '.join(show(v) for v in values)} ({rule})")
    return list(dict.fromkeys(failures))


def load_snapshot(path, label):
    """Parse one snapshot; an unreadable or malformed file is a usage
    error (exit 2), not a regression verdict (exit 1)."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        print(f"cannot read {label} snapshot {path}: {e}",
              file=sys.stderr)
    except json.JSONDecodeError as e:
        print(f"malformed JSON in {label} snapshot {path}: {e}",
              file=sys.stderr)
    return None


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    snaps = {side: load_snapshot(path, label) for side, label, path in
             zip((COMMITTED, FRESH), ("committed", "fresh"), sys.argv[1:])}
    if None in snaps.values():
        return 2
    failures = gate(snaps)
    for f in failures:
        print(f"REGRESSION: {f}", file=sys.stderr)
    if failures:
        return 1
    print(f"regression gate: PASS ({len(RULES)} rules, "
          f"{len(BOUNDS)} bounds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
