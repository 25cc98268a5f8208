#!/usr/bin/env python3
"""Build and run the repository benchmark (cacbench/README.md).

    python3 cacbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 cacbench/run.py --selftest

Builds the cacbench package (this directory's CMakeLists.txt, which
compiles the cac_* libraries from ../src) into .bench_build/cacbench at
the repository root, then runs the cacbench binary from the root.  Build output
goes to stderr; its report goes to stdout, whose last line is
the JSON result.  --selftest builds and runs the benchmark's own tests.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "cacbench")
WORK = os.path.join(".bench_build", "cacbench-run")
WORKLOADS = ["explore-serial", "explore-mt", "static-batch", "serve-agent"]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "front", "front.h")):
        sys.exit("cacbench: library sources (src/) not found next to cacbench/")
    if not os.path.isfile(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "cacbench", "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       cwd=ROOT, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j4"],
                   cwd=ROOT, stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"cacbench: build failed: {e}")
    if args.selftest:
        return subprocess.run(["ctest", "--test-dir", BUILD,
                               "--output-on-failure"], cwd=ROOT).returncode
    cmd = [os.path.join(BUILD, "cacbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--root", ".", "--work-dir", WORK]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
