#!/usr/bin/env python3
"""Run one workload of the accelsoc benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark package (release,
offline) into $CARGO_TARGET_DIR (default: .bench_build), runs the
workload in its own process, and relays its output. The last stdout
line is the result object {"correct", "attempted", "failed", "metrics"};
with --trace 0 the metrics are the end-to-end set of BENCHMARK.json,
with --trace 1 its per-layer set (the benchmark compiles that file
in). Spans of a traced run are written to $CARGO_TARGET_DIR/perfbench/. Exits non-zero on a build failure, an
output mismatch, broken job accounting, or a malformed result.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py   : {msg}", file=sys.stderr, flush=True)


def git_commit():
    """The commit of the checkout, when it is a git work tree of its own."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def check_result(line):
    """Why the result line is malformed, or None. The metric names and
    units come from BENCHMARK.json, compiled into the benchmark."""
    try:
        r = json.loads(line)
    except ValueError as e:
        return f"last line is not JSON: {e}"
    if not isinstance(r, dict) or set(r) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct, attempted, failed, metrics"
    if r["attempted"] < 1:
        return "nothing attempted"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    t0 = time.monotonic()
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 1
    if build.returncode != 0:
        log(f"build failed with exit code {build.returncode}")
        return 1
    log(f"build ok in {time.monotonic() - t0:.1f} s")

    env["PERFBENCH_COMMIT"] = git_commit()
    cmd = [
        os.path.join(target, "release", "accelsoc-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--out", os.path.join(target, "perfbench"),
    ]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"workload run failed: {e}")
        return 1
    lines = run.stdout.splitlines()
    if not lines:
        log(f"workload printed nothing (exit code {run.returncode})")
        return 1
    problem = check_result(lines[-1])
    if problem:
        log(f"malformed result: {problem}")
        return 1
    print("\n".join(lines), flush=True)
    if run.returncode != 0:
        log(f"workload failed its output checks (exit code {run.returncode})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
