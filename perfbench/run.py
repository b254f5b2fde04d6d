#!/usr/bin/env python3
"""Builds the cdes benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload travel --seed 1 --seconds 10 --trace 0

The library (src/) and the load generator (perfbench/src/) are compiled
with CMake into $CARGO_TARGET_DIR (default .bench_build) on the first run;
later runs rebuild only what changed. Build output goes to stderr, so the
last line on stdout is the generator's JSON result. Workloads, metrics and
caveats are described in perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("travel", "pipeline", "durable", "verify")
# A run measures for --seconds plus set-up and checks; anything far beyond
# that is a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/CMakeLists.txt) not found")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "cdes_perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr; stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "cdes_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)  # no-op for an absolute path
    try:
        binary = build(os.path.join(target, "perfbench"))
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        return fail(str(e))

    workdir = os.path.join(target, f"work-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S}s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
