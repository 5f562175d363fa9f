#!/usr/bin/env python3
"""Regression gate over BENCH_table4.json snapshots.

Usage: check_bench_regression.py OLD.json NEW.json

Fails (exit 1) when the fresh run regresses against the committed
snapshot:
  - any solver_comparison instance ends with a worse (higher)
    objective, or needs more decisions or propagations (exact,
    host-independent work counters; planner wall time is gated end to
    end by perfbench's compile_s), or
  - any Table-4 model's plan status gets worse
    (OPTIMAL -> FEASIBLE -> greedy/unknown ordering), or
  - any Fig-6 scheduler policy's makespan or mean request latency
    (queueing delay included) worsens by more than 10%, or the
    memory-aware policy stops re-planning, or
  - any serving policy's p95 request latency worsens by more than 10%,
    its goodput drops by more than 2 points, or its max sustainable
    QPS drops by more than 10%, or
  - the serving_faults section loses a fault scenario, any scenario's
    goodput drops by more than 2 points or its p99 worsens by more
    than 10%, a fresh-run scenario stops accounting for every
    submitted request, or the mid-run-crash goodput ratio falls below
    0.65 of fault-free (the "crash costs < 35% goodput" bound), or
  - the serving_admission section loses a scenario, any scenario's
    goodput drops by more than 2 points or its p99 worsens by more
    than 10%, a fresh-run scenario stops accounting for every
    submitted request, the arrival gate stops strictly beating
    dispatch-point-only admission on goodput at overload
    (arrival_goodput_delta <= 0), or the cold-influx goodput gap of
    the predicted-tier view vs the fully-calibrated oracle exceeds
    0.15, or
  - the serving_sharding section loses a (device count, overlap)
    operating point, any point's max sustainable QPS drops by more
    than 10%, the 4-device scaling efficiency regresses by more than
    10%, or the cross-request overlap demo stops improving the
    back-to-back makespan, or
  - the serving_obs section reports tracing-on overhead above 10%
    of the tracing-off run time, an off-vs-off delta above 10%
    (tracing disabled must cost nothing, so the two untraced arms
    must agree to within measurement noise), a traced run whose
    outcome diverges from the untraced run, or a traced run that
    recorded no events, or
  - the solver_portfolio section loses an instance, its symmetry
    conflict ratio (plain/broken — a deterministic counter ratio, not
    wall time) drops below 90% of the committed value or below 1.0,
    the portfolio proves fewer budget windows optimal than the
    committed snapshot or no more than the single configuration, a
    budget instance's portfolio status/objective worsens, or the
    pool-size-1/2/8 byte-determinism flag goes false.

Missing data fails loudly: a keyed row lacking its key or a gated
field, instances/models/policies present on one side but not the
other, and absent sections are regressions (coverage loss), not
silent passes.
Regenerate the snapshot deliberately (tools/run_benchmarks.sh
--no-gate) when the schema legitimately changes.

Run by tools/run_benchmarks.sh before it replaces the snapshot.
"""

import json
import sys

STATUS_RANK = {"OPTIMAL": 0, "FEASIBLE": 1, "UNKNOWN": 2,
               "INFEASIBLE": 3}
RATIO_TOLERANCE = 0.90     # fail below 90% of the committed ratio
LATENCY_TOLERANCE = 1.10   # fail above 110% of the committed time
GOODPUT_TOLERANCE = 0.02   # fail on > 2-point absolute goodput drop
QPS_TOLERANCE = 0.90       # fail below 90% of the committed max QPS
OBS_OVERHEAD_TOLERANCE = 1.10  # tracing-on must stay within +10%
OBS_NOISE_TOLERANCE = 0.10     # off-vs-off arms must agree to 10%


def check_keyed_rows(name, key, old_rows, new_rows, failures, check):
    """Compare rows keyed by @key; rows missing on either side fail,
    and so does a row lacking @key, a key repeated on one side (a
    later row would hide an earlier one), or a field that @check
    reads."""
    sides = []
    for label, rows in (("committed snapshot", old_rows),
                        ("fresh run", new_rows)):
        by_key = {}
        for i, row in enumerate(rows):
            if key not in row:
                failures.append(
                    f"{name} #{i}: field '{key}' missing from the "
                    f"{label}")
                continue
            if row[key] in by_key:
                failures.append(
                    f"{name} {row[key]}: duplicate row in the {label}")
                continue
            by_key[row[key]] = row
        sides.append(by_key)
    old_by, new_by = sides
    for k in old_by:
        if k not in new_by:
            failures.append(
                f"{name} {k}: missing from the fresh run "
                "(coverage lost)")
    for k, row in new_by.items():
        if k not in old_by:
            failures.append(
                f"{name} {k}: missing from the committed snapshot "
                "(regenerate the snapshot to admit it)")
            continue
        try:
            check(k, old_by[k], row)
        except KeyError as e:
            field = e.args[0]
            side = ("the fresh run" if field not in row
                    else "the committed snapshot")
            failures.append(
                f"{name} {k}: field '{field}' missing from {side}")


def load_snapshot(path, label):
    """Parse one snapshot; unreadable or malformed files are a usage
    error (exit 2), distinct from a regression verdict (exit 1)."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        print(f"cannot read {label} snapshot {path}: {e}",
              file=sys.stderr)
        return None
    except json.JSONDecodeError as e:
        print(f"malformed JSON in {label} snapshot {path}: {e}",
              file=sys.stderr)
        return None


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old = load_snapshot(sys.argv[1], "committed")
    if old is None:
        return 2
    new = load_snapshot(sys.argv[2], "fresh")
    if new is None:
        return 2

    failures = []

    def instance_check(name, old_row, new_row):
        for field, what in (("objective", "objective worsened"),
                            ("decisions", "decisions grew"),
                            ("propagations", "propagations grew")):
            if new_row[field] > old_row[field]:
                failures.append(
                    f"instance {name}: {what}"
                    f" {old_row[field]} -> {new_row[field]}")

    check_keyed_rows(
        "instance", "name",
        old.get("solver_comparison", {}).get("instances", []),
        new.get("solver_comparison", {}).get("instances", []),
        failures, instance_check)

    def table4_check(name, old_row, new_row):
        was = STATUS_RANK.get(old_row["status"], 9)
        now = STATUS_RANK.get(new_row["status"], 9)
        if now > was:
            failures.append(
                f"table4 {name}: status worsened"
                f" {old_row['status']} -> {new_row['status']}")

    check_keyed_rows("table4", "model", old.get("table4", []),
                     new.get("table4", []), failures, table4_check)

    # Fig-6 scheduler policies: makespan and queueing-aware mean
    # latency are the multi-DNN performance gate.
    if "fig6_policies" not in old or "fig6_policies" not in new:
        side = ("both snapshots"
                if "fig6_policies" not in old and
                "fig6_policies" not in new else
                "the committed snapshot"
                if "fig6_policies" not in old else "the fresh run")
        failures.append(f"fig6_policies missing from {side}")
    else:
        def policy_check(name, old_row, new_row):
            for field in ("makespan_ms", "mean_latency_ms"):
                if new_row[field] > LATENCY_TOLERANCE * old_row[field]:
                    failures.append(
                        f"fig6 policy {name}: {field} worsened"
                        f" {old_row[field]:.1f} ->"
                        f" {new_row[field]:.1f} (> 10%)")
            if name == "memory-aware" and new_row.get("replans", 0) <= 0:
                failures.append(
                    "fig6 policy memory-aware: no re-plans — "
                    "on-device re-planning went dead")

        check_keyed_rows("fig6 policy", "policy",
                         old["fig6_policies"], new["fig6_policies"],
                         failures, policy_check)

    # Serving harness: per-policy tail latency, goodput, and the max
    # sustainable QPS from the capacity sweep.
    if "serving" not in old or "serving" not in new:
        side = ("both snapshots"
                if "serving" not in old and "serving" not in new else
                "the committed snapshot"
                if "serving" not in old else "the fresh run")
        failures.append(f"serving section missing from {side}")
    else:
        def serving_check(name, old_row, new_row):
            if new_row["p95_ms"] > LATENCY_TOLERANCE * old_row["p95_ms"]:
                failures.append(
                    f"serving policy {name}: p95 worsened"
                    f" {old_row['p95_ms']:.1f} ->"
                    f" {new_row['p95_ms']:.1f} ms (> 10%)")
            if new_row["goodput"] < old_row["goodput"] - GOODPUT_TOLERANCE:
                failures.append(
                    f"serving policy {name}: goodput dropped"
                    f" {old_row['goodput']:.3f} ->"
                    f" {new_row['goodput']:.3f} (> 2 points)")
            if (new_row["max_sustainable_qps"] <
                    QPS_TOLERANCE * old_row["max_sustainable_qps"]):
                failures.append(
                    f"serving policy {name}: max sustainable QPS"
                    f" regressed {old_row['max_sustainable_qps']:.2f}"
                    f" -> {new_row['max_sustainable_qps']:.2f}"
                    " (> 10%)")

        old_serving = old["serving"].get("policies", [])
        new_serving = new["serving"].get("policies", [])
        if not old_serving or not new_serving:
            failures.append(
                "serving section has no policies in "
                + ("the committed snapshot" if not old_serving
                   else "the fresh run"))
        check_keyed_rows("serving policy", "policy", old_serving,
                         new_serving, failures, serving_check)

    # Fault tolerance: goodput/p99 per injected-fault scenario, the
    # every-request-accounted invariant, and the mid-run-crash
    # goodput bound. Losing a scenario is lost coverage.
    if "serving_faults" not in old or "serving_faults" not in new:
        side = ("both snapshots"
                if "serving_faults" not in old and
                "serving_faults" not in new else
                "the committed snapshot"
                if "serving_faults" not in old else "the fresh run")
        failures.append(f"serving_faults missing from {side}")
    else:
        def fault_check(name, old_row, new_row):
            if not new_row["accounting_complete"]:
                failures.append(
                    f"fault scenario {name}: a submitted request was "
                    "neither completed nor shed with a reason")
            if new_row["goodput"] < old_row["goodput"] - GOODPUT_TOLERANCE:
                failures.append(
                    f"fault scenario {name}: goodput dropped"
                    f" {old_row['goodput']:.3f} ->"
                    f" {new_row['goodput']:.3f} (> 2 points)")
            if new_row["p99_ms"] > LATENCY_TOLERANCE * old_row["p99_ms"]:
                failures.append(
                    f"fault scenario {name}: p99 worsened"
                    f" {old_row['p99_ms']:.1f} ->"
                    f" {new_row['p99_ms']:.1f} ms (> 10%)")

        old_faults = old["serving_faults"].get("scenarios", [])
        new_faults = new["serving_faults"].get("scenarios", [])
        if not old_faults or not new_faults:
            failures.append(
                "serving_faults has no scenarios in "
                + ("the committed snapshot" if not old_faults
                   else "the fresh run"))
        check_keyed_rows("fault scenario", "scenario", old_faults,
                         new_faults, failures, fault_check)

        ratio = new["serving_faults"].get("crash_goodput_ratio")
        if ratio is None:
            failures.append(
                "crash_goodput_ratio missing from the fresh run")
        elif ratio < 0.65:
            failures.append(
                "mid-run crash now costs more than 35% goodput "
                f"vs fault-free (ratio {ratio:.3f} < 0.65)")
        else:
            print(f"crash goodput ratio: {ratio:.3f}")

    # Arrival-time admission: goodput/p99 per overload scenario, the
    # accounting invariant, the gated-beats-ungated delta, and the
    # cold-influx gap of the predicted-tier estimator vs the oracle.
    if "serving_admission" not in old or "serving_admission" not in new:
        side = ("both snapshots"
                if "serving_admission" not in old and
                "serving_admission" not in new else
                "the committed snapshot"
                if "serving_admission" not in old else "the fresh run")
        failures.append(f"serving_admission missing from {side}")
    else:
        def admission_check(name, old_row, new_row):
            if not new_row["accounting_complete"]:
                failures.append(
                    f"admission scenario {name}: a submitted request "
                    "was neither completed nor shed with a reason")
            if new_row["goodput"] < old_row["goodput"] - GOODPUT_TOLERANCE:
                failures.append(
                    f"admission scenario {name}: goodput dropped"
                    f" {old_row['goodput']:.3f} ->"
                    f" {new_row['goodput']:.3f} (> 2 points)")
            if new_row["p99_ms"] > LATENCY_TOLERANCE * old_row["p99_ms"]:
                failures.append(
                    f"admission scenario {name}: p99 worsened"
                    f" {old_row['p99_ms']:.1f} ->"
                    f" {new_row['p99_ms']:.1f} ms (> 10%)")

        old_adm = old["serving_admission"].get("scenarios", [])
        new_adm = new["serving_admission"].get("scenarios", [])
        if not old_adm or not new_adm:
            failures.append(
                "serving_admission has no scenarios in "
                + ("the committed snapshot" if not old_adm
                   else "the fresh run"))
        check_keyed_rows("admission scenario", "scenario", old_adm,
                         new_adm, failures, admission_check)

        delta = new["serving_admission"].get("arrival_goodput_delta")
        if delta is None:
            failures.append(
                "arrival_goodput_delta missing from the fresh run")
        elif delta <= 0.0:
            failures.append(
                "arrival-time admission no longer strictly beats "
                "dispatch-point-only admission on goodput at "
                f"overload (delta {delta:.4f} <= 0)")
        else:
            print(f"arrival admission goodput delta: {delta:.4f}")

        gap = new["serving_admission"].get("cold_goodput_gap")
        if gap is None:
            failures.append(
                "cold_goodput_gap missing from the fresh run")
        elif gap > 0.15:
            failures.append(
                "cold-model influx: the predicted-tier gate gives up "
                f"more than 15 goodput points vs the oracle (gap "
                f"{gap:.4f} > 0.15)")
        else:
            print(f"cold influx goodput gap: {gap:.4f}")

    # Device sharding: the scaling curve over device counts and the
    # cross-request overlap demo. Missing device counts are lost
    # coverage, not silent passes.
    if "serving_sharding" not in old or "serving_sharding" not in new:
        side = ("both snapshots"
                if "serving_sharding" not in old and
                "serving_sharding" not in new else
                "the committed snapshot"
                if "serving_sharding" not in old else "the fresh run")
        failures.append(f"serving_sharding missing from {side}")
    else:
        old_sh = old["serving_sharding"]
        new_sh = new["serving_sharding"]

        def point_key(row):
            overlap = "on" if row.get("overlap") else "off"
            return f"{row.get('devices')}dev/{overlap}"

        def keyed(rows):
            return [dict(r, point=point_key(r)) for r in rows]

        def sharding_check(name, old_row, new_row):
            if (new_row["max_sustainable_qps"] <
                    QPS_TOLERANCE * old_row["max_sustainable_qps"]):
                failures.append(
                    f"sharding point {name}: max sustainable QPS"
                    f" regressed {old_row['max_sustainable_qps']:.2f}"
                    f" -> {new_row['max_sustainable_qps']:.2f}"
                    " (> 10%)")

        old_pts = keyed(old_sh.get("scaling", []))
        new_pts = keyed(new_sh.get("scaling", []))
        if not old_pts or not new_pts:
            failures.append(
                "serving_sharding has no scaling points in "
                + ("the committed snapshot" if not old_pts
                   else "the fresh run"))
        check_keyed_rows("sharding point", "point", old_pts, new_pts,
                         failures, sharding_check)

        old_eff = old_sh.get("scaling_efficiency_4dev")
        new_eff = new_sh.get("scaling_efficiency_4dev")
        if old_eff is None or new_eff is None:
            failures.append(
                "scaling_efficiency_4dev missing from "
                + ("both snapshots" if old_eff is None and
                   new_eff is None else
                   "the committed snapshot" if old_eff is None else
                   "the fresh run"))
        else:
            if new_eff < QPS_TOLERANCE * old_eff:
                failures.append(
                    "sharding scaling efficiency at 4 devices "
                    f"regressed: {old_eff:.3f} -> {new_eff:.3f} "
                    "(> 10%)")
            print(f"4-device scaling efficiency: {old_eff:.3f} -> "
                  f"{new_eff:.3f}")

        new_demo = new_sh.get("overlap_demo", {})
        if "makespan_speedup" not in new_demo:
            failures.append(
                "serving_sharding overlap_demo missing from the "
                "fresh run")
        elif new_demo["makespan_speedup"] <= 1.0:
            failures.append(
                "cross-request overlap no longer improves the "
                "back-to-back LLM makespan (speedup "
                f"{new_demo['makespan_speedup']:.3f} <= 1.0)")

    # Observability: the tracing layer's cost contract. The fresh
    # run's ratios are what the gate judges (the committed ones only
    # prove the section existed before); overhead above 10% or a
    # traced/untraced outcome divergence means instrumentation crept
    # onto the hot path.
    if "serving_obs" not in old or "serving_obs" not in new:
        side = ("both snapshots"
                if "serving_obs" not in old and
                "serving_obs" not in new else
                "the committed snapshot"
                if "serving_obs" not in old else "the fresh run")
        failures.append(f"serving_obs missing from {side}")
    else:
        obs = new["serving_obs"]
        overhead = obs.get("on_overhead_ratio")
        if overhead is None:
            failures.append(
                "on_overhead_ratio missing from the fresh run")
        elif overhead > OBS_OVERHEAD_TOLERANCE:
            failures.append(
                "tracing-on overhead exceeds 10% of the untraced "
                f"serving run (ratio {overhead:.3f} > "
                f"{OBS_OVERHEAD_TOLERANCE:.2f})")
        else:
            print(f"tracing-on overhead ratio: {overhead:.3f}")

        noise = obs.get("off_delta_ratio")
        if noise is None:
            failures.append(
                "off_delta_ratio missing from the fresh run")
        elif noise > OBS_NOISE_TOLERANCE:
            failures.append(
                "tracing-off arms disagree by more than 10% "
                f"(delta {noise:.3f}) — either the null-recorder "
                "path stopped being free or the measurement is too "
                "noisy to trust")
        else:
            print(f"tracing-off noise floor: {noise:.3f}")

        if not obs.get("outcome_identical", False):
            failures.append(
                "traced serving outcome diverged from the untraced "
                "run — tracing must observe, never perturb")
        if obs.get("trace_events", 0) <= 0:
            failures.append(
                "the traced serving run recorded no events — "
                "instrumentation went dead")

    # Inside-one-window portfolio + symmetry breaking: the conflict
    # ratio and optimal-window counts are deterministic counters, so
    # the gate holds on any machine class; wall times in the section
    # are informational only.
    if "solver_portfolio" not in old or "solver_portfolio" not in new:
        side = ("both snapshots"
                if "solver_portfolio" not in old and
                "solver_portfolio" not in new else
                "the committed snapshot"
                if "solver_portfolio" not in old else "the fresh run")
        failures.append(f"solver_portfolio missing from {side}")
    else:
        old_pf = old["solver_portfolio"]
        new_pf = new["solver_portfolio"]

        old_ratio = old_pf.get("symmetry_conflict_ratio")
        new_ratio = new_pf.get("symmetry_conflict_ratio")
        if old_ratio is None or new_ratio is None:
            failures.append(
                "symmetry_conflict_ratio missing from "
                + ("both snapshots" if old_ratio is None and
                   new_ratio is None else
                   "the committed snapshot" if old_ratio is None else
                   "the fresh run"))
        else:
            if new_ratio < RATIO_TOLERANCE * old_ratio:
                failures.append(
                    "symmetry-breaking conflict ratio regressed: "
                    f"{old_ratio:.1f}x -> {new_ratio:.1f}x (> 10% "
                    "drop)")
            if new_ratio <= 1.0:
                failures.append(
                    "symmetry breaking no longer cuts conflicts on "
                    f"interchangeable windows (ratio {new_ratio:.2f}"
                    " <= 1.0)")
            print(f"symmetry conflict ratio: {old_ratio:.1f}x -> "
                  f"{new_ratio:.1f}x")

        def sym_check(name, old_row, new_row):
            del old_row
            if (new_row["broken_conflicts"] >=
                    new_row["plain_conflicts"]):
                failures.append(
                    f"symmetry instance {name}: lex rows no longer "
                    f"cut conflicts ({new_row['plain_conflicts']} "
                    f"plain vs {new_row['broken_conflicts']} broken)")

        check_keyed_rows("symmetry instance", "name",
                         old_pf.get("symmetry_instances", []),
                         new_pf.get("symmetry_instances", []),
                         failures, sym_check)

        def budget_check(name, old_row, new_row):
            was = STATUS_RANK.get(old_row["portfolio_status"], 9)
            now = STATUS_RANK.get(new_row["portfolio_status"], 9)
            if now > was:
                failures.append(
                    f"budget instance {name}: portfolio status "
                    f"worsened {old_row['portfolio_status']} -> "
                    f"{new_row['portfolio_status']}")
            if (new_row["portfolio_objective"] >
                    old_row["portfolio_objective"]):
                failures.append(
                    f"budget instance {name}: portfolio objective "
                    f"worsened {old_row['portfolio_objective']} -> "
                    f"{new_row['portfolio_objective']}")

        check_keyed_rows("budget instance", "name",
                         old_pf.get("budget_instances", []),
                         new_pf.get("budget_instances", []),
                         failures, budget_check)

        old_opt = old_pf.get("optimal_windows_portfolio")
        new_opt = new_pf.get("optimal_windows_portfolio")
        new_single = new_pf.get("optimal_windows_single")
        if old_opt is None or new_opt is None or new_single is None:
            failures.append(
                "optimal-window counts missing from the "
                + ("committed snapshot" if old_opt is None
                   else "fresh run"))
        else:
            if new_opt < old_opt:
                failures.append(
                    "portfolio proves fewer windows optimal than the "
                    f"committed snapshot ({old_opt} -> {new_opt})")
            if new_opt <= new_single:
                failures.append(
                    "the portfolio no longer proves strictly more "
                    "windows optimal than the single configuration "
                    f"({new_opt} vs {new_single}) at the same "
                    "per-config budget")
            print(f"optimal windows: single {new_single}, "
                  f"portfolio {old_opt} -> {new_opt}")

        if not new_pf.get("deterministic", False):
            failures.append(
                "portfolio merged results are no longer identical "
                "across pool sizes 1/2/8 — thread count leaked into "
                "the plan")

    if failures:
        for f in failures:
            print(f"REGRESSION: {f}", file=sys.stderr)
        return 1
    print("regression gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
