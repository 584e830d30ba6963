#!/usr/bin/env bash
# Build and run the tier-1 test suite under a sanitizer, CI-friendly
# (exit nonzero on any failure).  Each sanitizer gets its own build
# tree so repeated runs are incremental.
#
# Usage: scripts/check_sanitize.sh [address|undefined|thread] [ctest args...]
#
# Defaults to address.  Extra arguments are forwarded to ctest, e.g.
#   scripts/check_sanitize.sh undefined -R Storage
#   scripts/check_sanitize.sh thread
#
# Notes:
#   * JIT-compiled pipeline objects are built by the system compiler
#     without instrumentation; the sanitizer still covers the entire
#     host-side compiler and runtime, which is where the manual memory
#     management lives (BufferPool, scratch arenas, slot leases).
#   * ASAN_OPTIONS disables leak checking of intentionally process-
#     lifetime allocations (dlopen handles of cached objects).
#   * thread mode targets the concurrency surface (serving engine,
#     registry, concurrent Executable::run, JIT cache writers) at full
#     width: compiled pipelines run their tasks on TileScheduler threads,
#     whose synchronisation TSan sees, and generated code uses no OpenMP
#     runtime.  Only the comparator kernels (paper baselines, not in the
#     thread set) use OpenMP.  Without extra ctest args, thread mode
#     runs the concurrency-focused tests rather than the whole suite.

set -eu
cd "$(dirname "$0")/.."

# Mode comes from the first argument, or the POLYMAGE_SANITIZE
# environment variable (matching the CMake cache option), or address.
san="${1:-${POLYMAGE_SANITIZE:-address}}"
[ $# -gt 0 ] && shift
case "$san" in
    address|undefined|thread) ;;
    *) echo "usage: $0 [address|undefined|thread] [ctest args...]" >&2
       exit 2 ;;
esac

build_dir="build-sanitize-$san"

cmake -B "$build_dir" -S . -DPOLYMAGE_SANITIZE="$san" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "$(nproc)"

export ASAN_OPTIONS="detect_leaks=0:abort_on_error=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"

if [ "$san" = thread ]; then
    export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
    if [ $# -eq 0 ]; then
        # Scheduler matches the claim-cursor/barrier stress
        # (tests/runtime/test_scheduler.cpp) and the engine tests,
        # which serve every compiled request on the tile pool -- the
        # pool's lock-free paths are exactly what TSan exists to
        # check.  Interpreter and Tiered run the
        # interpreter's bands on the pool, from the oracle tests and
        # from the engine's interpreter tier.  Entries, Exec, Stream and
        # SlicedReductions run compiled pipelines on schedulers of
        # several widths, each thread on its own scratch arena, and
        # sliced reductions' bands on the executor's slice plans.
        set -- -R '(Concurrent|Engine|Registry|Jit|Buffer|Scheduler|Interpreter|Tiered|Entries|Exec|Stream|SlicedReductions)'
    fi
fi

ctest --test-dir "$build_dir" --output-on-failure "$@"
echo "check_sanitize: $san build passed"
