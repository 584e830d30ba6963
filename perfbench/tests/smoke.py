#!/usr/bin/env python3
"""Smoke test of the benchmark.

Runs every workload for one second on the machine's default thread
count, and one traced run, through perfbench/run.py from the root of
the repository, and prints each run's metrics by name and unit.  Checks
that each run exits 0, reports correct outputs and no failures, and
reports exactly the metrics BENCHMARK.json names, with their units.
The first run builds the benchmark.

    python3 perfbench/tests/smoke.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def run(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=1200)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{proc.returncode}")
    lines = proc.stdout.strip().split("\n")
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def check(result, expected, label):
    assert result["correct"] is True, f"{label}: outputs not correct"
    assert result["failed"] == 0, f"{label}: {result['failed']} failed"
    assert result["attempted"] >= 1, f"{label}: nothing attempted"
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected, (
        f"{label}: metrics differ from BENCHMARK.json: missing "
        f"{sorted(set(expected) - set(got))}, extra "
        f"{sorted(set(got) - set(expected))}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    # serve-mixed is not in BENCHMARK.json's list (see README.md) but
    # stays runnable, so it is smoked too.
    for w in ("batch", "serve-mixed", "cold-start"):
        check(run(w, 0), e2e, w)
        print(f"ok {w}", flush=True)
    check(run("batch", 1), layers, "batch traced")
    print("ok batch traced", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
