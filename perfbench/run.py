#!/usr/bin/env python3
"""Builds and runs the end-to-end buffyd benchmark (README.md beside this file).

Run from the root of a buffy checkout:

    python3 perfbench/run.py --workload cold_explore --seed 1 --seconds 20 --trace 0

The first run configures and builds the library, buffyd, buffyd_router
and the benchmark program perfbench into .bench_build/perfbench (about a
minute on four cores); later runs only check that the build is current.
Build output goes to stderr. The stdout of perfbench is passed through: a
host record line, a request-count line, and, as the last line, the result
JSON. Result records and Chrome traces land in .bench_build/perfbench-out.
"""
import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("cold_explore", "warm_repeat", "whatif_probe", "fleet_scatter")
# Sources the benchmark builds; a checkout without them cannot be measured.
REQUIRED = ("src/CMakeLists.txt", "examples/buffyd.cpp", "examples/buffyd_router.cpp")
TARGETS = ("perfbench", "buffyd", "buffyd_router")


def build(here, build_dir):
    """Configures and builds the targets; returns True on success."""
    def configure():
        return subprocess.call(
            ["cmake", "-S", here, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr) == 0

    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")) or not configure():
        # Fresh tree, or a cache left by a checkout at another path.
        shutil.rmtree(build_dir, ignore_errors=True)
        if not configure():
            return False
    cmd = ["cmake", "--build", build_dir, "-j4", "--target", *TARGETS]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    for need in REQUIRED:
        if not os.path.isfile(os.path.join(root, need)):
            print(f"perfbench: {need} is missing; run from the root of a buffy checkout",
                  file=sys.stderr)
            return 1
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    out_dir = os.path.join(root, ".bench_build", "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    fresh = not os.path.isfile(os.path.join(build_dir, "perfbench"))
    if not build(here, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # A run may take 180 s, the first one (which builds) 900 s.
    budget = (900 if fresh else 180) - 10 - (time.monotonic() - started)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--bin-dir", build_dir, "--out-dir", out_dir]
    # Become the subreaper of everything perfbench spawns, and start it in
    # its own process group: whatever outlives it is killed and reaped here.
    PR_SET_CHILD_SUBREAPER = 36
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    # A SIGTERM to this script still runs the clean-up below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=max(budget, 1))
    except subprocess.TimeoutExpired:
        print("perfbench: timed out", file=sys.stderr)
        rc = 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        while True:
            try:
                os.waitpid(-1, 0)
            except ChildProcessError:
                break
    return rc


if __name__ == "__main__":
    sys.exit(main())
