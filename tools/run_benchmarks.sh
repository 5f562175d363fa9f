#!/usr/bin/env bash
# Build Release and emit BENCH_table4.json: Table-4 plan statuses and
# flow augmentations, per-model plan quality, merge-time re-balancing,
# the Fig-6 per-policy scheduler section, and the serving, fault,
# admission and sharding sections. Every value is simulated or
# counted, so any host reproduces the snapshot byte for byte unless
# behaviour changed. Run from anywhere; artifacts land in the repo root.
#
# The fresh run replaces the snapshot only if it passes the RULES and
# BOUNDS tables of tools/check_bench_regression.py; --no-gate skips
# that check when the schema changes on purpose.
#
# Pass --only SECTION[,SECTION...] to re-run a subset of the benches,
# one section per bench binary: `solver` (bench_table4_solver_runtime:
# Table 4, plan quality, re-balancing),
# `fig6` (bench_fig6_multimodel) and `serving` (bench_serving: serving,
# faults, admission, sharding). The sections not re-run
# are carried over from the committed snapshot, so the merged result
# keeps the full schema and the gate still checks everything.
#
# Pass --trace-dir DIR to additionally export Chrome/Perfetto
# trace-event JSON of representative runs (bench_serving --trace for
# the faulty overload serving path, bench_fig6_multimodel --trace for
# the re-planning scheduler with its planner track) into DIR; load
# the .json files in ui.perfetto.dev. Each run also writes its text
# export next to the JSON (same stem, .trace), the input of
# tools/trace_diff.py. The exports ride alongside whatever sections
# run — they don't participate in the snapshot merge.
#
# Usage: tools/run_benchmarks.sh [--no-gate] [--only SECTIONS]
#        [--trace-dir DIR] [output.json]

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-bench"

gate=1
only=""
trace_dir=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        --no-gate) gate=0; shift ;;
        --only) only="${2:?--only needs a section list}"; shift 2 ;;
        --only=*) only="${1#--only=}"; shift ;;
        --trace-dir)
            trace_dir="${2:?--trace-dir needs a directory}"; shift 2 ;;
        --trace-dir=*) trace_dir="${1#--trace-dir=}"; shift ;;
        *) break ;;
    esac
done
out_json="${1:-${repo_root}/BENCH_table4.json}"

run_solver=1; run_fig6=1; run_serving=1
if [[ -n "${only}" ]]; then
    run_solver=0; run_fig6=0; run_serving=0
    IFS=',' read -ra sections <<< "${only}"
    for s in "${sections[@]}"; do
        case "$s" in
            solver)  run_solver=1 ;;
            fig6)    run_fig6=1 ;;
            serving) run_serving=1 ;;
            *) echo "error: unknown section '$s'" \
                    "(expected solver, fig6, serving)" >&2; exit 2 ;;
        esac
    done
    if [[ ! -f "${out_json}" ]]; then
        echo "error: --only needs an existing snapshot at" \
             "${out_json} to carry the other sections from" >&2
        exit 2
    fi
fi

# Install the cleanup trap before the first mktemp so an early exit
# (set -e between the mktemp calls, ctrl-C) cannot strand temp files.
solver_json=""; fig6_json=""; serving_json=""; merged_json=""
cleanup() {
    rm -f ${solver_json:+"${solver_json}"} \
          ${fig6_json:+"${fig6_json}"} \
          ${serving_json:+"${serving_json}"} \
          ${merged_json:+"${merged_json}"}
}
trap cleanup EXIT
solver_json="$(mktemp /tmp/bench_table4.XXXXXX.json)"
fig6_json="$(mktemp /tmp/bench_fig6.XXXXXX.json)"
serving_json="$(mktemp /tmp/bench_serving.XXXXXX.json)"
merged_json="$(mktemp /tmp/bench_merged.XXXXXX.json)"

targets=()
[[ ${run_solver} -eq 1 ]] && targets+=(bench_table4_solver_runtime)
[[ ${run_fig6} -eq 1 || -n "${trace_dir}" ]] &&
    targets+=(bench_fig6_multimodel)
[[ ${run_serving} -eq 1 || -n "${trace_dir}" ]] &&
    targets+=(bench_serving)

cmake -B "${build_dir}" -S "${repo_root}" \
      -DCMAKE_BUILD_TYPE=Release -DBUILD_TESTING=OFF >/dev/null
cmake --build "${build_dir}" -j "$(nproc)" --target "${targets[@]}"

fresh=()
if [[ ${run_solver} -eq 1 ]]; then
    "${build_dir}/bench_table4_solver_runtime" "${solver_json}"
    fresh+=("${solver_json}")
fi
if [[ ${run_fig6} -eq 1 ]]; then
    "${build_dir}/bench_fig6_multimodel" "${fig6_json}" >/dev/null
    fresh+=("${fig6_json}")
fi
if [[ ${run_serving} -eq 1 ]]; then
    "${build_dir}/bench_serving" "${serving_json}" >/dev/null
    fresh+=("${serving_json}")
fi
if [[ -n "${trace_dir}" ]]; then
    mkdir -p "${trace_dir}"
    "${build_dir}/bench_serving" --trace \
        "${trace_dir}/serving_trace.json"
    "${build_dir}/bench_fig6_multimodel" --trace \
        "${trace_dir}/fig6_trace.json"
    echo "traces written to ${trace_dir} (load the .json files in" \
         "ui.perfetto.dev; compare .trace files with tools/trace_diff.py):"
    for f in serving_trace fig6_trace; do
        echo "  ${trace_dir}/${f}.json"
        echo "  ${trace_dir}/${f}.trace"
    done
fi

if ! command -v python3 >/dev/null; then
    echo "error: python3 is required to merge bench sections" >&2
    exit 1
fi

# Merge the per-bench sections. Full run: sections start from the
# solver output and top-level keys must be disjoint (a silent
# overwrite would let one bench mask another's section). Partial run
# (--only): start from the committed snapshot and *replace* the keys
# the re-run benches own; two fresh outputs still must not collide
# with each other.
if [[ -n "${only}" ]]; then
    merge_base="${out_json}"
    merge_mode="replace"
else
    merge_base="${fresh[0]}"
    merge_mode="disjoint"
    fresh=("${fresh[@]:1}")
fi
python3 - "${merge_mode}" "${merge_base}" "${merged_json}" \
        "${fresh[@]}" <<'EOF'
import json, sys
mode, base_path, out_path = sys.argv[1:4]
with open(base_path) as f:
    snap = json.load(f)
fresh_owner = {}
for path in sys.argv[4:]:
    with open(path) as f:
        section = json.load(f)
    for key, value in section.items():
        if key in fresh_owner:
            sys.exit(f"error: bench outputs collide on top-level "
                     f"key '{key}' ({fresh_owner[key]} and {path})")
        if mode == "disjoint" and key in snap:
            sys.exit(f"error: bench section merge would overwrite "
                     f"top-level key '{key}' (from {path}); bench "
                     f"outputs must use disjoint keys")
        fresh_owner[key] = path
        snap[key] = value
with open(out_path, "w") as f:
    json.dump(snap, f, indent=2)
    f.write("\n")
EOF

if [[ ${gate} -eq 1 && -f "${out_json}" ]]; then
    python3 "${repo_root}/tools/check_bench_regression.py" \
            "${out_json}" "${merged_json}"
fi

mv "${merged_json}" "${out_json}"
merged_json="" # delivered; cleanup must not touch it
echo "perf snapshot written to ${out_json}"
