#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload batch|serve-mixed|cold-start \
        --seed N --seconds S --trace 0|1

The first call builds pmbench and the polymage library from source into
.bench_build/ and fills a JIT cache private to the benchmark
(.bench_build/jit-cache) with every variant the warm workloads load.
Neither step is timed.  The last line of standard output is the result
JSON of pmbench; everything else (build output, progress) goes to
standard error or precedes it.  Exits non-zero, without a result, when
the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
BINARY = os.path.join(BUILD, "pmbench")
JIT_CACHE = os.path.join(WORK, "jit-cache")

WORKLOADS = ("batch", "serve-mixed", "cold-start")
BUILD_TIMEOUT_S = 800
PREPARE_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_checked(cmd, timeout, env=None):
    """Run cmd with its output on stderr; raise on failure or timeout."""
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                   timeout=timeout, check=True)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S)


def bench_env():
    env = dict(os.environ)
    env["XDG_CACHE_HOME"] = JIT_CACHE
    # g++ temporaries stay inside the checkout.
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def prepare(env):
    """Fill the JIT cache once per pmbench binary (untimed)."""
    with open(BINARY, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    stamp = os.path.join(JIT_CACHE, f"prepared-{digest}")
    if os.path.exists(stamp):
        return
    log("filling the JIT cache")
    run_checked([BINARY, "prepare", "--work-dir", WORK], PREPARE_TIMEOUT_S,
                env=env)
    with open(stamp, "w") as f:
        f.write("ok\n")


def run_bench(args, env):
    """Run pmbench; return its last stdout line (the result JSON)."""
    cmd = [BINARY, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--work-dir", WORK]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"pmbench exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        raise RuntimeError(f"pmbench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("malformed result line")
    return lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
        env = bench_env()
        prepare(env)
        result = run_bench(args, env)
    except (subprocess.SubprocessError, OSError, RuntimeError,
            ValueError) as e:
        log(f"failed: {e}")
        return 1
    print(result, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
