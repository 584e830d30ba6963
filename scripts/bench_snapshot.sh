#!/usr/bin/env bash
# Regenerate the committed benchmark snapshots:
#
#   BENCH_table2.json    the Table-2 profile run (per-app compile
#                        trace, runtime profile, memory and codegen
#                        records).
#   BENCH_autotune.json  the Figure-9 autotuning study
#                        (polymage-tune-bench-v1): per app the fixed
#                        default, the tile cost model's pick, the
#                        exhaustive grid sweep and the model-guided
#                        hill climb, with ratios and build counts.
#                        Runs the paper's full 7x7x3 space so the
#                        guided sweep's build savings are measured
#                        against the space the paper searches.
#   BENCH_serve.json     the serving-scheduler study
#                        (docs/SERVING.md "Scheduling"): per paper app
#                        the per-request-OpenMP vs shared-tile-queue
#                        head-to-head under concurrent clients, plus
#                        the SLO admission scenario (tight-deadline
#                        requests shed at submit, zero deadline misses
#                        among admitted requests).
#   BENCH_stream.json    the streaming study (docs/STREAMING.md):
#                        temporal-denoise frame sequences at paced
#                        30/60 fps targets plus unpaced maximum
#                        throughput, both directly through
#                        StreamExecutable and through engine streaming
#                        sessions, with sustained fps, p99 frame
#                        latency, missed deadlines and the zero-alloc
#                        steady-state verdict per run.
#
# Usage: scripts/bench_snapshot.sh [scale] [tune_scale] [serve_scale]
#
# `scale` (default 0.5) linearly scales the paper image sizes; it is
# recorded in the snapshot so numbers are comparable across runs.
# `tune_scale` (default 0.35) does the same for the autotune study,
# whose exhaustive sweep JIT-builds every grid point per app and is by
# far the most expensive part.  `serve_scale` (default 0.125) scales
# the serving study, which JIT-compiles all seven apps twice (once per
# scheduler mode).  Honours POLYMAGE_BUILD_DIR (defaults to build).
# Wall times are machine-dependent; the snapshots' value is tracking
# relative ratios (speedups, interior fractions, model vs sweep,
# shared-vs-per-request wins) across commits, not absolute times.

set -eu
cd "$(dirname "$0")/.."

scale="${1:-0.5}"
tune_scale="${2:-0.35}"
serve_scale="${3:-0.125}"
build_dir="${POLYMAGE_BUILD_DIR:-build}"
out=BENCH_table2.json
tune_out=BENCH_autotune.json
serve_out=BENCH_serve.json
stream_out=BENCH_stream.json

cmake -B "$build_dir" -S . >/dev/null
cmake --build "$build_dir" -j "$(nproc)" --target bench_table2 \
    --target bench_fig9_autotune \
    --target bench_serve \
    --target bench_stream >/dev/null

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

POLYMAGE_BENCH_SCALE="$scale" "$build_dir/bench/bench_table2" \
    --profile-json "$tmp/table2.json"

# Compose the committed snapshot: the profile document embedded
# verbatim.
{
    printf '{\n"schema": "polymage-bench-snapshot-v1",\n'
    printf '"generated_by": "scripts/bench_snapshot.sh",\n'
    printf '"scale": %s,\n' "$scale"
    printf '"table2": '
    cat "$tmp/table2.json"
    printf '}\n'
} > "$out"

echo "bench_snapshot: wrote $out"

POLYMAGE_BENCH_SCALE="$tune_scale" POLYMAGE_TUNE_FULL=1 \
    "$build_dir/bench/bench_fig9_autotune" --tune-json "$tune_out"

echo "bench_snapshot: wrote $tune_out"

# Serving snapshot.  A 2-thread budget with 2 concurrent clients per
# worker is the smallest configuration where the tile scheduler's
# cross-request batching can show up.
POLYMAGE_BENCH_SCALE="$serve_scale" POLYMAGE_SERVE_THREADS=2 \
    "$build_dir/bench/bench_serve" --requests 12 --workers 1,2 \
    --policy block --cold-shapes 3 --slo 12 \
    --timings-json "$serve_out"

echo "bench_snapshot: wrote $serve_out"

# Streaming snapshot: quarter-scale frames (matching the serving
# study's footprint) are enough to show the paced rates held and the
# zero-alloc steady state; absolute fps at full scale is machine noise
# this snapshot does not try to track.
POLYMAGE_BENCH_SCALE="$serve_scale" "$build_dir/bench/bench_stream" \
    --frames 90 --rates 30,60 --timings-json "$stream_out"

echo "bench_snapshot: wrote $stream_out"
