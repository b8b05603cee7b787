#!/usr/bin/env python3
"""Builds the perfbench harness from this checkout's sources and runs one workload.

Usage (from the repository root):

  python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test

The build lives in .bench_build/perfbench. Every line the harness prints is passed
through; the last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}. The exit code is the harness's: non-zero on
a build failure, a wrong answer, or a failed self-test.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Headroom under the 180 s a run may take, for the build check and process start.
HARNESS_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the harness; returns True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", BUILD, "--target", "perfbench_harness", "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["serve_warm", "engine_cold", "chaos_campaign"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required unless --self-test is given")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    if args.self_test:
        code, lines = run_harness([HARNESS, "--self-test"], HARNESS_TIMEOUT_S)
        print("\n".join(lines))
        return code
    if args.trace == 0:
        code, result = run_workload(args, 0, args.seconds, HARNESS_TIMEOUT_S)
        return code if result is not None else 1
    # Traced: an untraced and a traced run, each in its own process for half the seconds;
    # each end-to-end metric's difference between the two is its tracing overhead.
    half = args.seconds / 2.0
    code_plain, plain = run_workload(args, 0, half, HARNESS_TIMEOUT_S / 2)
    if plain is None:
        return 1
    code_traced, traced = run_workload(args, 1, half, HARNESS_TIMEOUT_S / 2)
    if traced is None:
        return 1
    metrics = dict(traced["metrics"])
    for name, entry in plain["metrics"].items():
        metrics["trace_overhead." + name] = {
            "value": traced["traced_end_to_end"][name] - entry["value"], "unit": entry["unit"]}
    combined = {"correct": plain["correct"] and traced["correct"],
                "attempted": plain["attempted"] + traced["attempted"],
                "failed": plain["failed"] + traced["failed"],
                "metrics": metrics}
    print(json.dumps(combined))
    return code_plain or code_traced


def run_harness(command, timeout):
    """Runs the harness; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as expired:
        out = expired.stdout or ""
        sys.stdout.write(out if isinstance(out, str) else out.decode())
        print("perfbench: harness exceeded %d s" % timeout, file=sys.stderr)
        return 1, []
    lines = proc.stdout.splitlines()
    return proc.returncode, lines


def run_workload(args, trace, seconds, timeout):
    """Runs one workload; returns (exit code, parsed result or None).

    With --trace 0 the harness's lines are passed through, so its result line is the last.
    With --trace 1 they are held back (the caller prints the combined result), and the
    harness's traced_end_to_end line is folded into the returned result.
    """
    command = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(trace), "--git-sha", git_sha(),
               "--out-dir", os.path.join(BUILD, "spans")]
    code, lines = run_harness(command, timeout)
    traced = None
    for line in lines:
        if line.startswith('{"traced_end_to_end"'):
            traced = json.loads(line)["traced_end_to_end"]
        elif args.trace == 0 or not line.startswith('{"correct"'):
            print(line)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("perfbench: the harness printed no result line", file=sys.stderr)
        return code or 1, None
    if trace == 1:
        if traced is None:
            print("perfbench: the traced run printed no end-to-end line", file=sys.stderr)
            return code or 1, None
        result["traced_end_to_end"] = traced
    return code, result


if __name__ == "__main__":
    sys.exit(main())
