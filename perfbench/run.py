#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload study_sweep --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds perfbench/ together with the
cactid libraries it links (into .bench_build/); later runs only
rebuild what changed.  The driver's last stdout line is the JSON
result; build output goes to stderr.  Exit status is the driver's
(0 correct, 1 a correctness failure, 2 bad usage, 3 a refused build),
or 4 when the sources or the build are missing or the run timed out.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr, flush=True)


def cpus():
    return len(os.sched_getaffinity(0))


def quiet(cmd):
    """Run a build step; on failure show its output and stop."""
    res = subprocess.run(cmd, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        log(f"build step failed: {' '.join(cmd)}")
        sys.exit(4)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no cactid sources under {ROOT}")
        sys.exit(4)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
               "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        quiet(cmd)
    quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
           "-j", str(cpus())])
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    binary = build()
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans = os.path.join(SPANS_DIR, f"{a.workload}-seed{a.seed}.json")
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--spans-out", spans]
    env = dict(os.environ)
    env.pop("ARCHSIM_INSTR", None)  # keep the study's default budget
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 4
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
