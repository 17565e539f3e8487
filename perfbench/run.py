#!/usr/bin/env python3
"""Builds and runs the Aurora end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: kv_periodic, heap_scatter, app_fleet, standby_stream (see
BENCHMARK.json and perfbench/README.md); --workload all runs each in turn and
ends with one combined result line whose metrics are keyed
"<workload>.<metric>". The benchmark is a C++ program built from this
checkout's sources into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the first run builds it. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 1 the run also writes a Chrome trace-event file under
<build dir>/traces/. The exit status is non-zero if the build fails, the run
fails, or any operation or correctness check failed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("kv_periodic", "heap_scatter", "app_fleet", "standby_stream")
BUILD_TIMEOUT_S = 840
# A run measures whole rounds until --seconds have passed, so it may overrun
# by one round (well under a minute) plus the self-test and the report.
ROUND_SLACK_S = 60


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out


def build(root, build_dir):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        code, _ = run_group(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            fail("configure failed")
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    code, _ = run_group(
        ["cmake", "--build", build_dir, "--target", "aurora_perfbench", "-j", jobs],
        max(1.0, deadline - time.monotonic()), sys.stderr)
    if code != 0:
        fail("build failed")
    return os.path.join(build_dir, "aurora_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be at least 1 and --seed non-negative")

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"run from the repository root: {needed} is missing")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(root, target)), "perfbench")
    binary = build(root, build_dir)

    if args.workload != "all":
        code, result = run_workload(binary, build_dir, args, args.workload)
        sys.exit(code if code != 0 else (0 if result["correct"] else 1))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_workload(binary, build_dir, args, workload)
        worst = max(worst, code)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    sys.exit(worst if worst != 0 else (0 if combined["correct"] else 1))


def run_workload(binary, build_dir, args, workload):
    """Runs the benchmark on one workload, echoing its output; returns (exit code, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{workload}-seed{args.seed}.json")]
    code, out = run_group(cmd, 2 * args.seconds + ROUND_SLACK_S, subprocess.PIPE)
    text = out.decode()
    sys.stdout.write(text)
    sys.stdout.flush()
    lines = text.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except (IndexError, ValueError):
        fail(f"the benchmark exited with {code} without a result line")
    return code, result


if __name__ == "__main__":
    main()
