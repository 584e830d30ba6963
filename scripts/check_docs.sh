#!/usr/bin/env bash
# Documentation consistency checks, CI-friendly (exit nonzero on any
# failure, no network, no build needed):
#
#   1. Every intra-repo markdown link ([text](path) and bare `path`
#      references to docs/) resolves to an existing file.
#   2. Every span name documented in docs/OBSERVABILITY.md is emitted
#      by the implementation, and vice versa.
#   3. Every JSON schema tag and field name documented is present in
#      the serializers.
#
# Usage: scripts/check_docs.sh   (from anywhere inside the repo)

set -u
cd "$(dirname "$0")/.."

fail=0
err() { echo "check_docs: $*" >&2; fail=1; }

# ---------------------------------------------------------------- 1.
# Intra-repo markdown links.  Skips http(s), mailto and #anchors;
# strips a trailing #anchor from file links.  Links resolve relative
# to the file containing them.
for md in *.md docs/*.md; do
    [ -f "$md" ] || continue
    dir=$(dirname "$md")
    # shellcheck disable=SC2013
    while IFS= read -r target; do
        case "$target" in
            http://*|https://*|mailto:*|\#*) continue ;;
        esac
        path="${target%%#*}"
        [ -n "$path" ] || continue
        if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
            err "$md: broken link -> $target"
        fi
    done < <(awk '/^```/{fence=!fence; next} !fence' "$md" \
             | grep -o '\[[^]]*\]([^)]*)' | sed 's/.*(\(.*\))/\1/')
done

# ---------------------------------------------------------------- 2.
# Span names: the set documented in OBSERVABILITY.md's span table must
# equal the set the implementation emits.
doc=docs/OBSERVABILITY.md
[ -f "$doc" ] || { err "$doc missing"; exit 1; }

documented=$(grep -o '^| `[a-z_]*` |' "$doc" | tr -d '|` ' | sort -u)
emitted=$(grep -rh 'obs::ScopedTrace' src/ \
          | grep -o '"[a-z_]*"' | tr -d '"' | sort -u)

for name in $documented; do
    echo "$emitted" | grep -qx "$name" \
        || err "span \`$name\` documented in $doc but not emitted in src/"
done
for name in $emitted; do
    echo "$documented" | grep -qx "$name" \
        || err "span \`$name\` emitted in src/ but missing from $doc span table"
done

# ---------------------------------------------------------------- 3.
# Schema tags and field names documented must appear in the sources.
for tag in polymage-trace-v1 polymage-runtime-v1 polymage-memory-v1 \
           polymage-profile-v1 polymage-tune-v1 polymage-tune-bench-v1; do
    grep -q "$tag" "$doc" || err "schema tag $tag missing from $doc"
    grep -rq "$tag" src/ bench/ || err "schema tag $tag not found in sources"
done
for field in start_ns duration_ns serial_seconds total_seconds stages \
             est_bytes_saved heap_arena_bytes pool_peak_bytes_in_use \
             pool_block_allocs tile_sizes overlap_threshold tile_model \
             working_set_bytes predicted_overlap t1_seconds tp_seconds \
             l1d_bytes; do
    grep -q "\"$field\"" "$doc" || err "field \"$field\" missing from $doc"
    grep -rq "\"$field\"" src/ || err "field \"$field\" not emitted by src/"
done

# ---------------------------------------------------------------- 4.
# Serving docs: the serve schema tags and their headline fields must be
# documented in docs/SERVING.md and present in the serializers.
sdoc=docs/SERVING.md
[ -f "$sdoc" ] || err "$sdoc missing"
if [ -f "$sdoc" ]; then
    for tag in polymage-serve-v1 polymage-serve-bench-v1; do
        grep -q "$tag" "$sdoc" || err "schema tag $tag missing from $sdoc"
        grep -rq "$tag" src/ bench/ \
            || err "schema tag $tag not found in sources"
    done
    for field in queue_capacity peak_queue_depth p50_seconds \
                 p95_seconds p99_seconds queue_wait block_allocs \
                 thread_budget tiered interp_served compiled_served \
                 promotions promotion; do
        grep -q "\"$field\"" "$sdoc" \
            || err "field \"$field\" missing from $sdoc"
        grep -rq "\"$field\"" src/ bench/ \
            || err "field \"$field\" not emitted by src/ or bench/"
    done
fi

# ---------------------------------------------------------------- 5.
# Shape/variant docs: docs/SHAPES.md must exist, be cross-linked from
# the docs that touch serving across shapes, and its cold-start fields
# must be emitted by the benchmark.  The deleted runtime tile-size ABI
# must not come back under its old names (history files -- CHANGES,
# EXPERIMENTS, ROADMAP -- may still name it).
shdoc=docs/SHAPES.md
[ -f "$shdoc" ] || err "$shdoc missing"
if [ -f "$shdoc" ]; then
    for from in docs/INTERNALS.md docs/SERVING.md docs/DSL_GUIDE.md \
                docs/OBSERVABILITY.md; do
        grep -q "SHAPES.md" "$from" \
            || err "$from does not cross-link $shdoc"
    done
    for field in cold_start first_request_seconds tier; do
        grep -q "\"$field\"" "$sdoc" "$shdoc" 2>/dev/null \
            || err "field \"$field\" missing from $sdoc and $shdoc"
        grep -rq "\"$field\"" src/ bench/ \
            || err "field \"$field\" not emitted by src/ or bench/"
    done
fi
stale='shapeGeneric|pm_tau|tileParam(Count|Defaults)|dispatchTileSizes|tileSizesForShape'
if grep -rnE "$stale" README.md docs/ src/ bench/ tools/; then
    err "deleted runtime tile-size names (above) are back"
fi
# The second serving model and the third entry flavour must not come
# back either (docs/SERVING.md names the dropped JSON fields once).
stale='SchedulerMode|PerRequestOMP|ompThreadsPerWorker|omp_threads_per_worker|taskABI|hasTaskEntry|_pm_instr|compare-sched'
if grep -rnE "$stale" src/ bench/ tools/; then
    err "deleted serving-mode or instrumented-entry names (above) are back"
fi
# Nor the OpenMP entry and its runtime: generated code runs on the
# TileScheduler (the comparators, paper baselines, keep OpenMP).
stale='omp parallel|omp critical|omp_set_num_threads|PipelineFn|loadOpenMPRuntime|JitOptions::openmp'
if grep -rnE "$stale" src/ bench/ tools/ --exclude-dir=comparators; then
    err "deleted OpenMP entry names (above) are back"
fi
# Nor the scheduler's second ways in and the knobs that went with
# them: TileScheduler::run is its one job entry.
stale='helpWhile|TileScheduler::submit|TileScheduler::Ticket|SchedulerOptions::grain|GeneratedCode::taskEntry|EngineOptions::maxBatch'
if grep -rnE "$stale" README.md docs/ src/ bench/ tools/; then
    err "deleted scheduler entry or option names (above) are back"
fi
# Nor the per-worker deques and the injection queue: every job is one
# claim cursor (src/runtime/scheduler.cpp).
stale='WorkDeque|Chase.?Lev|injectMu_|injection queue'
if grep -rnE "$stale" README.md docs/ src/ bench/ tools/; then
    err "deleted work-stealing deque names (above) are back"
fi

# ---------------------------------------------------------------- 6.
# Vectorisation docs: docs/VECTORIZATION.md must exist, be
# cross-linked from the docs that touch codegen and observability, and
# the `vector` profile-object fields it documents must be emitted.
vdoc=docs/VECTORIZATION.md
[ -f "$vdoc" ] || err "$vdoc missing"
if [ -f "$vdoc" ]; then
    for from in README.md docs/INTERNALS.md docs/OBSERVABILITY.md; do
        grep -q "VECTORIZATION.md" "$from" \
            || err "$from does not cross-link $vdoc"
    done
    for field in isa narrowed_stages explicit_fraction vec_ablation \
                 off_ms explicit_ms; do
        grep -q "\"$field\"" "$vdoc" \
            || err "field \"$field\" missing from $vdoc"
        grep -rq "\"$field\"" src/ bench/ \
            || err "field \"$field\" not emitted by src/ or bench/"
    done
fi

# ---------------------------------------------------------------- 7.
# Scheduling docs: docs/SERVING.md must carry the "Scheduling" section
# for the shared tile pool, be cross-linked from the docs that touch
# the scheduler, and its scheduler/SLO fields must be emitted.
if [ -f "$sdoc" ]; then
    grep -q "## 4. Scheduling" "$sdoc" \
        || err "$sdoc missing the Scheduling section"
    for from in README.md docs/INTERNALS.md docs/OBSERVABILITY.md; do
        grep -qi "scheduling\|scheduler" "$from" \
            || err "$from does not cross-link the Scheduling section"
    done
    for field in scheduler tasks_executed chunks_executed steals \
                 steal_attempts steal_fail_rate jobs_completed batches \
                 batched_requests mean_batch_size max_batch_size slo \
                 quota_shed deadline_misses tenant_shed shed_wait; do
        grep -q "\"$field\"" "$sdoc" \
            || err "field \"$field\" missing from $sdoc"
        grep -rq "\"$field\"" src/ \
            || err "field \"$field\" not emitted by src/"
    done
fi

# ---------------------------------------------------------------- 8.
# Streaming docs: docs/STREAMING.md must exist, be cross-linked from
# the docs that touch the time axis, and the stream metrics / memory
# fields it documents must be emitted.
stdoc=docs/STREAMING.md
[ -f "$stdoc" ] || err "$stdoc missing"
if [ -f "$stdoc" ]; then
    for from in README.md docs/INTERNALS.md docs/SERVING.md \
                docs/OBSERVABILITY.md docs/DSL_GUIDE.md; do
        grep -q "STREAMING.md" "$from" \
            || err "$from does not cross-link $stdoc"
    done
    for tag in polymage-stream-bench-v1; do
        grep -q "$tag" "$stdoc" || err "schema tag $tag missing from $stdoc"
        grep -rq "$tag" src/ bench/ \
            || err "schema tag $tag not found in sources"
    done
    for field in sessions_opened sessions_closed sessions_active \
                 frames_submitted frames_completed frames_failed \
                 frame_latency fps ring_buffers ring_bytes; do
        grep -q "\"$field\"" "$stdoc" \
            || err "field \"$field\" missing from $stdoc"
        grep -rq "\"$field\"" src/ bench/ \
            || err "field \"$field\" not emitted by src/ or bench/"
    done
    for api in setMaxDelay "prev(" openStream submitFrame closeStream \
               StreamExecutable; do
        grep -q "$api" "$stdoc" || err "API $api missing from $stdoc"
    done
fi

# ---------------------------------------------------------------- 9.
# CompileOptions is the only compile configuration: the deleted
# environment overrides, JitOptions fields and interpreter options stay
# gone (this script names them, so it is not searched), and the driver
# reads no environment variable.
stale='POLYMAGE_(NO_TILE_MODEL|TILE_SIZES|OVERLAP_THRESH|NARROW|NO_REUSE'
stale="$stale|NO_PARTITION|VECTORIZE)|applyEnvOverrides|kEnvOverrides"
stale="$stale|keepFiles|extraFlags|nativeArch|checkCaseOverlap|EvalOptions"
if grep -rnE --exclude=check_docs.sh "$stale" \
        README.md docs/ src/ bench/ tools/ scripts/; then
    err "deleted compile configuration names (above) are back"
fi
if grep -rn 'getenv' src/driver/; then
    err "src/driver/ reads the environment (above)"
fi
# CompileOptions holds the paper's axes only: the deleted fields, the
# inlining options struct, the heuristics' former option names and the
# partitioning ablation harness stay gone.
stale='maxStackScratchBytes|bufferReuse|codegen\.partition|codegen\.tile'
stale="$stale|InlineOptions|maxBodyNodes|minTiledExtent|grouping\.minSize"
stale="$stale|bench_ablation_partition"
if grep -rnE --exclude=check_docs.sh "$stale" \
        README.md docs/ src/ bench/ tools/ scripts/; then
    err "deleted CompileOptions field names (above) are back"
fi
# The scratch arena is the host's, one per thread for every module it
# runs (src/runtime/executor.cpp): generated code keeps no arena of its
# own, which pinned each module in memory after dlclose.
stale='pm_task_arena|PmArena|one per thread and module'
if grep -rnE "$stale" docs/ src/ tools/; then
    err "per-module arena names (above) are back"
fi

if [ "$fail" -ne 0 ]; then
    echo "check_docs: FAILED" >&2
    exit 1
fi
echo "check_docs: OK"
