#!/usr/bin/env python3
"""Build libaskel and the autobench harness from source, then run one workload.

Usage (from the repository root):

    python3 autobench/run.py --workload wide_map --seed 1 --seconds 10 --trace 0

The build lives in .bench_build/autobench (configured once, rebuilt
incrementally). Build output goes to stderr; the harness's standard output is
passed through unchanged, so its last line is the JSON result. Extra flags
(--short) are forwarded to the harness.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(REPO_DIR, ".bench_build", "autobench")
BINARY = os.path.join(BUILD_DIR, "autobench")


def fail(msg):
    print(f"autobench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(targets=("autobench",)):
    if not os.path.isfile(os.path.join(REPO_DIR, "src", "askel.hpp")):
        fail(f"no libaskel sources under {REPO_DIR}/src; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", *targets, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")


def main():
    build()
    sys.stdout.flush()
    try:
        done = subprocess.run([BINARY] + sys.argv[1:], cwd=REPO_DIR, timeout=175)
    except subprocess.TimeoutExpired:
        fail("harness exceeded 175 s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
