#!/usr/bin/env python3
"""Builds and runs the PIMCOMP benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --self-test

The first run configures and builds perfbench/ (which compiles the library
from ../src) into .bench_build/perfbench; later runs only rebuild what
changed. Build output goes to .bench_build/build.log, never to stdout, so
the last line of stdout is the benchmark's JSON result. Exits non-zero, with
no result line, when the checkout is incomplete or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_LOG = os.path.join(BUILD_ROOT, "build.log")
WORK_DIR = os.path.join(BUILD_ROOT, "run")
WORKLOADS = ("compile-cold", "serve-mix", "fleet-tiers")


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} at {ROOT}: run from a PIMCOMP checkout", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(BUILD_LOG, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(BUILD_LOG) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail(f"build failed (see {BUILD_LOG})", 3)


def run(workload, args):
    """Runs one workload; returns its exit code."""
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.relpath(WORK_DIR, os.getcwd())]
    child = subprocess.Popen(command)
    try:
        code = child.wait()
    except KeyboardInterrupt:
        child.terminate()
        code = child.wait()
    # The benchmark removes its per-process directory on every exit it
    # controls; this covers a crash.
    shutil.rmtree(os.path.join(WORK_DIR, str(child.pid)), ignore_errors=True)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness self-test")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.self_test:
        sys.exit(subprocess.run(["ctest", "--test-dir", BUILD_DIR,
                                 "--output-on-failure"]).returncode)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    sys.exit(max(run(workload, args) for workload in workloads))


if __name__ == "__main__":
    main()
