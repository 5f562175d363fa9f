#!/usr/bin/env bash
# Single entry point for the static-analysis gate, in severity order:
#
#   1. flashmem_lint     determinism rules (tools/flashmem_lint.py);
#                        always available, fails fast.
#   2. lint self-test    the fixture corpus proves every check fires
#                        and every suppression path works.
#   3. clang-tidy        generic bug classes (.clang-tidy profile)
#                        over compile_commands.json; availability-
#                        gated — this container ships GCC only, so
#                        the stage self-skips with a notice when no
#                        clang-tidy binary is on PATH.
#   4. sanitizers        tools/run_sanitized_tests.sh (address+UBSan,
#                        thread); opt-in via --with-sanitizers, the
#                        two instrumented builds dominate wall time.
#
# Usage: tools/run_static_analysis.sh [--with-sanitizers]
# Fail-fast: the first failing stage stops the run. Each stage
# reports wall time so CI logs show where the minutes go.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
with_sanitizers=0
for arg in "$@"; do
    case "$arg" in
        --with-sanitizers) with_sanitizers=1 ;;
        *) echo "usage: $0 [--with-sanitizers]" >&2; exit 2 ;;
    esac
done

stage() {
    local name="$1"; shift
    echo "=== $name ==="
    local t0 t1
    t0=$(date +%s)
    "$@"
    t1=$(date +%s)
    echo "=== $name: OK ($((t1 - t0))s) ==="
}

cd "$repo_root"

stage "flashmem_lint (determinism rules)" \
    python3 tools/flashmem_lint.py src bench tests tools examples \
            --exclude lint_fixtures

stage "flashmem_lint self-test (fixture corpus)" \
    python3 tests/test_flashmem_lint.py

# clang-tidy wants the compile database the CMake configure exports;
# configure a build dir if none exists yet.
run_clang_tidy() {
    if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "clang-tidy not on PATH; stage skipped (GCC-only" \
             "container). Install clang-tidy to enable it."
        return 0
    fi
    local build_dir="$repo_root/build"
    if [ ! -f "$build_dir/compile_commands.json" ]; then
        cmake -B "$build_dir" -S "$repo_root" >/dev/null
    fi
    # The curated profile sets WarningsAsErrors: '*', so any finding
    # fails the stage. Sources only; headers ride along via
    # HeaderFilterRegex.
    find src bench tools -name '*.cc' -print0 |
        xargs -0 clang-tidy -p "$build_dir" --quiet
}
stage "clang-tidy (curated profile)" run_clang_tidy

if [ "$with_sanitizers" = 1 ]; then
    stage "sanitized test suites (address, thread)" \
        tools/run_sanitized_tests.sh
else
    echo "(sanitizers skipped; pass --with-sanitizers to include" \
         "tools/run_sanitized_tests.sh)"
fi

echo "static analysis: PASS"
