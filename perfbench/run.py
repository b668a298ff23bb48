#!/usr/bin/env python3
"""Build and run the nemsim end-to-end benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload sram_column_read --seed 7 --seconds 50 --trace 0

Configures and builds perfbench/ (the nemsim libraries from src/ plus the
benchmark program) as a Release tree under .bench_build/perfbench, runs one
workload, and relays its output.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  --trace 1
prints the per-layer metrics instead of the end-to-end ones and writes a
Chrome trace to .bench_build/perfbench/traces/.  Build output goes to
stderr.  Exits non-zero, printing no result, when the sources are missing,
the build fails, or nemsim-perfbench fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "nemsim-perfbench")
WORKLOADS = ("sram_column_read", "sram_mc_snm")
RUN_TIMEOUT_S = 170


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: nemsim sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(nproc()),
                  "--target", "nemsim-perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def git_state():
    """(sha, dirty) of the checkout, or ("none", "unknown") outside git."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none", "unknown"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "none", "unknown"
    return sha.stdout.strip(), "1" if status.stdout.strip() else "0"


def parse_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys: %s" % sorted(result))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--trials", type=int,
                        help="Monte-Carlo trials per pass (sram_mc_snm)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")

    build()
    sha, dirty = git_state()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", sha, "--git-dirty", dirty]
    if args.trials is not None:
        cmd += ["--trials", str(args.trials)]
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]

    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: nemsim-perfbench exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.exit("perfbench: nemsim-perfbench exited with %d" % done.returncode)
    try:
        result = parse_result(lines[-1])
    except ValueError as e:
        sys.stderr.write(done.stdout)
        sys.exit("perfbench: nemsim-perfbench printed no result (%s)" % e)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
