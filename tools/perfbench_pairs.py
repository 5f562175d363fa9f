#!/usr/bin/env python3
"""Compare the pipeline benchmark between a parent revision and this tree.

    python3 tools/perfbench_pairs.py PARENT_REV [--workload W ...]
        [--export-dir DIR] [--json OUT]

Exports PARENT_REV with `git archive` and, for seeds 1..10, runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
(T is BENCHMARK.json's run_seconds) in the export and in the working
tree, alternating which side goes first (the parent on odd seeds). For
each workload and each end-to-end metric of BENCHMARK.json it prints
both sides' medians and quartiles, the change's wins out of the pairs,
and whether the change's median is worse than the parent's by more than
the metric's bound. A metric the change improves on at least 9 of 10
pairs, with medians further apart than the parent's interquartile
range, is marked `gain`; fewer than 10 pairs (a run failed) never are.
It then says whether the simulated metrics (every end-to-end metric
not measured on the host) repeat: `simulated metrics equal on N of N
pairs`, or the seeds and metrics that differ.

Each side builds its own perfbench under its own .bench_build/; nothing
under perfbench/ is written. The export goes to a temporary directory
that is removed afterwards, unless --export-dir names one to keep, so
the next call reuses its build. A kept export records its commit, and a
later call for another commit refuses it rather than compare against
the wrong parent. --json writes every run's metrics. Exit status: 0;
1 when a run failed or a median is worse than its bound; 2 when
PARENT_REV names no commit or the export directory holds something
else.
"""

import argparse
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SEEDS = range(1, 11)
GAIN_WIN_SHARE = 0.9
# Fewer pairs cannot resolve a 9-of-10 win share.
GAIN_MIN_PAIRS = 10
# Written into a kept export: the commit it holds.
EXPORT_STAMP = ".perfbench_pairs_commit"
# End-to-end metrics measured on the host: these units, and the RSS.
# Every other one is simulated, so it repeats per seed unless the
# change moved behaviour.
HOST_UNITS = ("s", "ref_s", "requests/ref_s")
HOST_METRICS = ("host_rss_mb",)


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order
    statistics (position p * (n - 1))."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")

    def at(p):
        pos = p * (len(xs) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def worse_share(parent, change, better):
    """How much worse @p change is than @p parent, as a share of the
    parent (negative when better)."""
    delta = change - parent if better == "lower" else parent - change
    if parent == 0:
        return 0.0 if delta == 0 else math.copysign(math.inf, delta)
    return delta / abs(parent)


def summarize(metrics, pairs):
    """One row per metric of @p metrics (BENCHMARK.json end_to_end
    entries) over @p pairs, a list of (parent, change) dicts mapping
    metric name to value."""
    rows = []
    for m in metrics:
        name, better = m["name"], m["better"]
        both = [(p[name], c[name]) for p, c in pairs
                if name in p and name in c]
        if not both:
            continue
        parent = quartiles([p for p, _ in both])
        change = quartiles([c for _, c in both])
        wins = sum(1 for p, c in both
                   if (c < p if better == "lower" else c > p))
        worse = worse_share(parent[1], change[1], better)
        iqr = parent[2] - parent[0]
        rows.append({
            "name": name, "unit": m["unit"], "better": better,
            "bound": m["bound"], "pairs": len(both), "wins": wins,
            "parent": parent, "change": change, "worse": worse,
            "over_bound": worse > m["bound"],
            "gain": (len(both) >= GAIN_MIN_PAIRS and
                     wins >= math.ceil(GAIN_WIN_SHARE * len(both)) and
                     worse < 0 and abs(change[1] - parent[1]) > iqr),
        })
    return rows


def fmt(x):
    return "%.4g" % x


def format_rows(workload, rows):
    lines = ["%s (%d pairs)" % (workload, rows[0]["pairs"] if rows else 0),
             "  %-16s %-15s %-32s %-32s %-6s %s" % (
                 "metric", "unit", "parent median [q1, q3]",
                 "change median [q1, q3]", "wins", "verdict")]
    for r in rows:
        side = [
            "%s [%s, %s]" % (fmt(q[1]), fmt(q[0]), fmt(q[2]))
            for q in (r["parent"], r["change"])]
        verdict = "WORSE than bound %g (%+.1f%%)" % (
            r["bound"], 100 * r["worse"]) if r["over_bound"] else (
            "gain" if r["gain"] else "")
        lines.append("  %-16s %-15s %-32s %-32s %-6s %s" % (
            r["name"], r["unit"], side[0], side[1],
            "%d/%d" % (r["wins"], r["pairs"]), verdict))
    return "\n".join(lines)


def simulated_line(metrics, runs):
    """Whether the simulated metrics of @p metrics (BENCHMARK.json
    end_to_end entries) repeat over @p runs, a list of (seed, parent,
    change): each side a dict mapping metric name to value, or None
    when its run failed. A missing side or value differs too."""
    names = [m["name"] for m in metrics
             if m["unit"] not in HOST_UNITS and
             m["name"] not in HOST_METRICS]
    differ = []
    for seed, parent, change in runs:
        if parent is None or change is None:
            differ.append("seed %d (%s side missing)" % (
                seed, "parent" if parent is None else "change"))
            continue
        moved = [n for n in names if parent.get(n) != change.get(n)]
        if moved:
            differ.append("seed %d (%s)" % (seed, ", ".join(moved)))
    line = "  simulated metrics equal on %d of %d pairs" % (
        len(runs) - len(differ), len(runs))
    return line + ("; differ: " + "; ".join(differ) if differ else "")


def resolve(rev):
    """The full commit id @p rev names in this repository."""
    return subprocess.run(
        ["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
        stdout=subprocess.PIPE, text=True, check=True).stdout.strip()


def export(commit, dest):
    """Extract @p commit of this repository into @p dest."""
    data = subprocess.run(["git", "archive", "--format=tar", commit],
                          cwd=ROOT, stdout=subprocess.PIPE,
                          check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def ensure_export(commit, dest, extract=export):
    """Make @p dest hold an export of @p commit: extract it (with
    @p extract) into an empty or missing @p dest and stamp it, or reuse
    a @p dest stamped with @p commit. ValueError when @p dest holds
    another commit's export or unstamped files."""
    stamp = os.path.join(dest, EXPORT_STAMP)
    if os.path.exists(stamp):
        with open(stamp) as f:
            held = f.read().strip()
        if held != commit:
            raise ValueError("%s holds an export of %s, not %s" % (
                dest, held, commit))
        return
    os.makedirs(dest, exist_ok=True)
    if os.listdir(dest):
        raise ValueError("%s is not empty and holds no export stamp" %
                         dest)
    extract(commit, dest)
    with open(stamp, "w") as f:
        f.write(commit + "\n")


def run_side(root, workload, seed, seconds):
    """One benchmark run in checkout @p root; its result dict, or None
    when it failed."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--export-dir")
    parser.add_argument("--json", help="write every run's results here")
    args = parser.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    export_dir = args.export_dir or tempfile.mkdtemp(
        prefix="perfbench-parent-")

    status = 0
    raw = {}
    try:
        try:
            ensure_export(resolve(args.parent_rev), export_dir)
        except (ValueError, subprocess.CalledProcessError) as e:
            print("error: %s" % e, file=sys.stderr)
            return 2
        for workload in workloads:
            sims, failed = [], {"parent": 0, "change": 0}
            ops = {"parent": [0, 0], "change": [0, 0]}
            for seed in SEEDS:
                sides = [("parent", export_dir), ("change", ROOT)]
                if seed % 2 == 0:
                    sides.reverse()
                got = {}
                for side, root in sides:
                    got[side] = run_side(root, workload, seed,
                                         spec["run_seconds"])
                    if got[side] is None:
                        failed[side] += 1
                        print("%s seed %d: %s run failed" % (
                            workload, seed, side), file=sys.stderr)
                        continue
                    ops[side][0] += got[side]["failed"]
                    ops[side][1] += got[side]["attempted"]
                raw.setdefault(workload, []).append(
                    {"seed": seed, **got})
                sims.append((seed, *(
                    {k: v["value"] for k, v in got[s]["metrics"].items()}
                    if got[s] else None for s in ("parent", "change"))))
            pairs = [(p, c) for _, p, c in sims
                     if p is not None and c is not None]
            rows = summarize(spec["end_to_end"], pairs)
            print(format_rows(workload, rows))
            print(simulated_line(spec["end_to_end"], sims))
            print("  failed operations: parent %d of %d, change %d of %d"
                  % (*ops["parent"], *ops["change"]))
            if failed["parent"] or failed["change"]:
                print("  failed runs: parent %d, change %d" % (
                    failed["parent"], failed["change"]))
                status = 1
            if any(r["over_bound"] for r in rows):
                status = 1
            sys.stdout.flush()
    finally:
        if not args.export_dir:
            shutil.rmtree(export_dir, ignore_errors=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1, sort_keys=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
