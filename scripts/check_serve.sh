#!/usr/bin/env bash
# Smoke-check the serving subsystem, CI-friendly (exit nonzero on
# failure): build the serving demo and benchmark, run a short
# Block-policy benchmark plus the tiered cold-start scenario, and
# validate the emitted polymage-serve-bench-v1 JSON — the snapshot
# must parse, carry the schema tags, keep workers plus scheduler
# threads within the thread budget,
# show zero rejected or shed requests (Block mode must complete
# everything), and the cold-start section must show the first request
# answered by the interpreter tier with a recorded promotion.
#
# Usage: scripts/check_serve.sh
#
# Honours POLYMAGE_BUILD_DIR (defaults to build).  Keeps the run small:
# two worker counts, a handful of requests, 1/8-scale images, and a
# thread budget of 2 via POLYMAGE_SERVE_THREADS (which the JSON must
# echo back).

set -eu
cd "$(dirname "$0")/.."

build_dir="${POLYMAGE_BUILD_DIR:-build}"

cmake -B "$build_dir" -S . >/dev/null
cmake --build "$build_dir" -j "$(nproc)" --target bench_serve \
    polymage_serve_demo >/dev/null

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
json="$tmp/serve.json"

# End-to-end demo: future + callback paths, exits nonzero on any
# failed request.
"$build_dir/tools/polymage_serve_demo" 48 48 4 >/dev/null

POLYMAGE_BENCH_SCALE=0.125 POLYMAGE_SERVE_THREADS=2 \
    "$build_dir/bench/bench_serve" --requests 6 --workers 1,2 \
    --policy block --cold-shapes 3 --slo 6 \
    --timings-json "$json" >/dev/null

if command -v python3 >/dev/null 2>&1; then
    python3 - "$json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

assert doc["schema"] == "polymage-serve-bench-v1", doc["schema"]
assert doc["thread_budget"] == 2, doc["thread_budget"]
assert doc["thread_budget_from_env"] is True
assert doc["apps"], "no apps in snapshot"
for app in doc["apps"]:
    assert app["configs"], f"no configs for {app['name']}"
    for cfg in app["configs"]:
        m = cfg["metrics"]
        assert m["schema"] == "polymage-serve-v1", m["schema"]
        assert cfg["policy"] == "block", cfg["policy"]
        # Block never drops work.
        assert m["rejected"] == 0, (app["name"], m["rejected"])
        assert m["shed"] == 0, (app["name"], m["shed"])
        assert m["completed"] == cfg["requests"], (app["name"], m)
        # One execution model: the workers plus the tile scheduler's
        # own threads stay within the budget (workers alone when they
        # use it all up), and the compiled requests ran as tile tasks.
        assert "omp_threads_per_worker" not in cfg, cfg
        assert "mode" not in m["scheduler"], m["scheduler"]
        assert (cfg["workers"] + m["scheduler"]["workers"]
                <= max(2, cfg["workers"])), cfg
        assert m["scheduler"]["tasks_executed"] > 0, (app["name"], m)
        assert m["latency"]["count"] == m["completed"] + m["failed"]

# Cold-start scenario (docs/SHAPES.md): the first request at every
# shape completes, the very first is interpreter-served (the JIT
# compile cannot have finished before it), and the tier-1 -> tier-2
# flip records exactly one promotion.
cold = doc["cold_start"]
assert cold["shapes"], "no cold-start shapes"
for s in cold["shapes"]:
    assert s["tier"] in (1, 2), s
    assert s["first_request_seconds"] > 0, s
assert cold["shapes"][0]["tier"] == 1, cold["shapes"][0]
cm = cold["metrics"]
assert cm["schema"] == "polymage-serve-v1", cm["schema"]
assert cm["tiered"] is True
assert cm["interp_served"] >= 1, cm
assert cm["compiled_served"] >= 1, cm
assert cm["promotions"] == 1, cm
assert cm["promotion"]["count"] == 1, cm

# SLO scenario: tight-deadline requests shed at submit, every admitted
# request completes, and no admitted request misses its deadline.
slo = doc["slo_scenario"]
assert slo["shed_at_submit"] > 0, slo
sm = slo["metrics"]
assert sm["slo"]["shed"] > 0, sm
assert sm["slo"]["shed"] == slo["shed_at_submit"], (slo, sm)
assert sm["slo"]["deadline_misses"] == 0, sm
# Every generous-deadline request (and the EWMA warmups) completed.
assert sm["completed"] >= slo["requests_generous"], (slo, sm)

print("serve JSON OK:", len(doc["apps"]), "apps + cold start + slo")
EOF
else
    # Fallback: structural grep when python3 is unavailable.
    grep -q '"schema":"polymage-serve-bench-v1"' "$json"
    grep -q '"schema":"polymage-serve-v1"' "$json"
    if grep -E '"rejected":[1-9]|"shed":[1-9]' "$json"; then
        echo "check_serve: Block mode dropped requests" >&2
        exit 1
    fi
fi

echo "check_serve: serving smoke test passed"
