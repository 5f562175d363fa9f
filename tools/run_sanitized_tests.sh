#!/usr/bin/env bash
# Build the tree under AddressSanitizer (+UBSan) and ThreadSanitizer
# and run the test suite under each. Catches the failure classes the
# fault-tolerance machinery is most exposed to: use-after-free on
# killed in-flight runs and data races in the thread pool's exception
# propagation.
#
# Each sanitizer gets its own build directory (build-asan /
# build-tsan) so instrumented objects never mix with the plain build.
#
# Usage: tools/run_sanitized_tests.sh [address|thread|undefined]
#   With no argument both address and thread run ('all'). The address
#   build already folds UBSan in, so 'undefined' is the standalone
#   UBSan build for isolating alignment/overflow reports from ASan
#   noise. Extra ctest arguments
#   can be passed via CTEST_ARGS, e.g. CTEST_ARGS="-R Faults" to
#   iterate on the fault-injection tests alone.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
requested="${1:-all}"
ctest_args=(${CTEST_ARGS:-})

run_one() {
    local san="$1"
    local build_dir="$repo_root/build-${san:0:1}san"
    echo "=== $san sanitizer: configure + build ($build_dir) ==="
    cmake -B "$build_dir" -S "$repo_root" \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DFLASHMEM_SANITIZE="$san" >/dev/null
    cmake --build "$build_dir" -j "$(nproc)" >/dev/null
    echo "=== $san sanitizer: ctest ==="
    # halt_on_error makes a sanitizer report fail the test instead of
    # scrolling past; the TSan history size covers the long-running
    # serving cross-validation tests.
    local env_prefix=()
    case "$san" in
        address)
            env_prefix=(env ASAN_OPTIONS=halt_on_error=1
                        UBSAN_OPTIONS=halt_on_error=1) ;;
        undefined)
            env_prefix=(env UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1") ;;
        *)
            env_prefix=(env TSAN_OPTIONS="halt_on_error=1 history_size=7") ;;
    esac
    # -j needs an explicit count here: a bare -j would swallow the
    # first CTEST_ARGS token as its value.
    (cd "$build_dir" &&
     "${env_prefix[@]}" ctest --output-on-failure -j "$(nproc)" \
         "${ctest_args[@]}")
}

case "$requested" in
    address|thread|undefined) run_one "$requested" ;;
    all)
        run_one address
        run_one thread
        ;;
    *)  echo "usage: $0 [address|thread|undefined]" >&2; exit 2 ;;
esac
echo "sanitized test run: PASS"
