#!/usr/bin/env python3
"""Build and run the FlashMem pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/ (the library from src/ plus perfbench.cc) in Release mode
under .bench_build/perfbench; later calls rebuild incrementally. The
binary's last stdout line is the result JSON, which this script validates
against BENCHMARK.json and prints as its own last line. Any build
failure, failed correctness check or malformed result exits non-zero
without printing a result.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the binary; returns True on success."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def run_benchmark(args, quiet=False):
    """Run the benchmark binary; returns (exit code, last stdout line or
    None). @p quiet drops its stderr."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL if quiet else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: benchmark binary timed out")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else None


def validate(result, expected):
    """Check the result shape and that it carries exactly the
    @p expected {name: unit} metrics; returns a list of problems."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if result["correct"] is not True:
        problems.append("correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            problems.append("%s is not an integer" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append("metric names differ: missing %s, extra %s" % (
            sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append("%s has unit %r, expected %r" %
                            (name, m.get("unit"), unit))
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            problems.append("%s has non-numeric value %r" % (name, v))
    return problems


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_once(workload, seed, seconds, trace, extra=()):
    """Run one measurement; returns (exit code, parsed result or None)."""
    report = os.path.join(BUILD_DIR, "report-%s-seed%d-trace%d.json" %
                          (workload, seed, trace))
    code, line = run_benchmark(["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace",
                             str(trace), "--report", report] + list(extra))
    if code != 0 or line is None:
        return code or 1, None
    try:
        return 0, json.loads(line)
    except ValueError:
        log("perfbench: last line is not JSON: %r" % line)
        return 1, None


def self_test(spec):
    """Names, units and per-workload metric sets, plus a deliberately
    corrupted outcome that must make the command fail."""
    failures = []
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    for name in names:
        if not NAME_RE.match(name):
            failures.append("bad metric or workload name %r" % name)
    if len(names) != len(set(names)):
        failures.append("duplicate names")
    for key in ("end_to_end", "per_layer"):
        for m in spec[key]:
            if not UNIT_RE.match(m["unit"]):
                failures.append("bad unit %r of %s" % (m["unit"], m["name"]))
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, result = run_once(w["name"], 7, 1, trace)
            if result is None:
                failures.append("%s trace=%d failed (exit %d)" %
                                (w["name"], trace, code))
                continue
            for p in validate(result, expected_metrics(spec, trace)):
                failures.append("%s trace=%d: %s" % (w["name"], trace, p))
    for workload in ("multi_dnn_churn", "serve_overload"):
        code, line = run_benchmark(["--workload", workload, "--seed", "7",
                                    "--seconds", "0", "--trace", "0",
                                    "--corrupt-accounting"], quiet=True)
        if code == 0 or (line or "").startswith("{"):
            failures.append("%s: corrupted accounting was not caught" %
                            workload)
    for f in failures:
        log("SELF-TEST FAIL:", f)
    log("self-test:", "PASS" if not failures else "FAIL")
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not build():
        log("perfbench: build failed")
        return 1
    spec = load_spec()
    if args.self_test:
        return self_test(spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("perfbench: unknown workload %r" % args.workload)
        return 2

    code, result = run_once(args.workload, args.seed, args.seconds,
                            args.trace)
    if result is None:
        log("perfbench: run failed (exit %d); no result" % code)
        return code or 1
    problems = validate(result, expected_metrics(spec, args.trace))
    for p in problems:
        log("perfbench: invalid result:", p)
    if problems:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
