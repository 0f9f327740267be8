#!/usr/bin/env python3
"""Build and run the RobustHD benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the `perfbench` binary (Release) under .bench_build/perfbench;
later runs rebuild only what changed. The binary's standard output is
passed through unchanged: its last line is the JSON result. Exits nonzero
without a result when the sources, the build or the run fail.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
WORKLOADS = ("wire_small", "wide_model", "features_repair")
# Each of these swaps the code being measured (ISA tier, plane layout,
# arena tiling, page backing); the binary refuses them too.
PINNED_ENV = ("ROBUSTHD_ISA", "ROBUSTHD_FORCE_SCALAR", "ROBUSTHD_LAYOUT",
              "ROBUSTHD_ARENA_TILE_KB", "ROBUSTHD_ARENA_HUGEPAGES")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no RobustHD sources next to perfbench/ (expected ../src)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    for name in PINNED_ENV:
        if name in os.environ:
            fail("refusing to run with %s set: it changes the code being "
                 "measured" % name)

    build()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--work-dir", WORK]
    with subprocess.Popen(cmd, cwd=ROOT) as proc:
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("run exceeded %d s" % RUN_TIMEOUT_S)
    shutil.rmtree(WORK, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
