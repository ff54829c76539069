#!/usr/bin/env python3
"""Steadiness (A/A) check: two alternating sets of runs of the same build.

    python3 perfbench/aa.py [--runs 5] [--workloads a,b] [--seconds S]

Run from the repository root.  For every workload it alternates runs of
set A and set B (A B, B A, A B, ...; every run a fresh seed) through
perfbench/run.py, then prints for each end-to-end metric each set's
median, first and third quartile and spread (quartile distance / median),
the same over both sets pooled, and how far set B's median moved from set
A's, against the metric's bound in BENCHMARK.json.  It exits 1 when a
spread (setup_s excepted) or a median move exceeds its bound: the failure
mode of a benchmark whose medians move between two sets of runs of
identical code.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit("aa: run of %s seed %d failed" % (workload, seed))
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--seed", type=int, default=1000,
                        help="first seed; every run takes the next one")
    args = parser.parse_args()

    ok = True
    seed = args.seed
    for workload in args.workloads.split(","):
        sets = ([], [])
        for i in range(args.runs):
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                sets[s].append(run_once(workload, seed, args.seconds))
                seed += 1
        print("%s (%d runs per set)" % (workload, args.runs))
        print("  %-16s %4s %14s %14s %14s %8s %8s %8s" % (
            "metric", "set", "median", "q1", "q3", "spread", "move", "bound"))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            better_lower = metric["better"] == "lower"
            values = [[m[name]["value"] for m in runs] for runs in sets]
            stats = [summary(v) for v in values] + [summary(values[0] + values[1])]
            move = (stats[1][0] - stats[0][0]) / stats[0][0]
            worse = move if better_lower else -move
            for s, (med, q1, q3, spread) in enumerate(stats):
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag, ok = " SPREAD", False
                if s == 1 and worse > bound:
                    flag, ok = flag + " MOVED", False
                print("  %-16s %4s %14.6g %14.6g %14.6g %8.4f %8s %8.3f%s" % (
                    name, ("A", "B", "A+B")[s], med, q1, q3, spread,
                    "%+.4f" % move if s == 1 else "", bound, flag))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
