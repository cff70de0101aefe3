#!/usr/bin/env python3
"""Builds and runs the FGM benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload wc-q1-window --seed 1 \
        --seconds 20 --trace 0

Configures and builds perfbench/ (which compiles the library from src/)
under .bench_build/perfbench, runs the `perfbench` binary, and forwards its
output. The last stdout line is the result object; one that is not well
formed exits non-zero without a result line. (The metric names the binary
prints are checked against BENCHMARK.json by perfbench/report_test.cc.)
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/; run from the repository root")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    if os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the benchmark.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def check_result(line):
    """Returns the problems with the result line (empty = well formed)."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(key + " is not an integer")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("nothing attempted")
    if not isinstance(result["metrics"], dict) or not result["metrics"]:
        problems.append("no metrics")
        return problems
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or not m.get("unit"):
            problems.append("metric %s has no numeric value or unit" % name)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    proc = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("perfbench exited with %d" % proc.returncode)
    problems = check_result(lines[-1])
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("; ".join(problems))
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
