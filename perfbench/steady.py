#!/usr/bin/env python3
"""Steadiness report: run each workload repeatedly and summarise the spread.

Usage (from the repository root):

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Runs perfbench/run.py --runs times per workload, each with its own seed
(first-seed, first-seed + 1, ...), at BENCHMARK.json's run_seconds.  For each
end-to-end metric it prints the median, the first and third quartiles, the
spread (Q3 - Q1) / median and the per-run values, and flags a spread above
the metric's bound ("OVER") or above a third of it ("wide").
Exits 1 when a run fails, reports incorrect output, or a spread exceeds its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise RuntimeError("%s seed %d exited with %d"
                           % (workload, seed, done.returncode))
    return json.loads(done.stdout.strip().split("\n")[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="workload to run (default: all in BENCHMARK.json)")
    args = parser.parse_args()
    if args.runs < 4:
        sys.exit("steady: need at least 4 runs for quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i,
                              bench["run_seconds"])
            if not result["correct"] or result["failed"]:
                print("%s run %d: incorrect output (%d of %d checks failed)"
                      % (workload, i + 1, result["failed"],
                         result["attempted"]))
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("\n%s: %d runs, seeds %d..%d" % (workload, args.runs,
                                              args.first_seed,
                                              args.first_seed + args.runs - 1))
        print("%-14s %14s %14s %14s %8s %7s" % ("metric", "median", "q1", "q3",
                                                "spread", "bound"))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bounds[name]:
                flag = "OVER"
                ok = False
            elif spread > bounds[name] / 3:
                flag = "wide"
            print("%-14s %14.6g %14.6g %14.6g %7.2f%% %6.0f%% %s"
                  % (name, med, q1, q3, 100 * spread, 100 * bounds[name],
                     flag))
            print("%-14s %s" % ("", " ".join("%.4g" % v for v in vals)))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
