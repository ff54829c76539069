#!/usr/bin/env python3
"""A/B comparison of two source trees on one perfbench workload.

    python3 scripts/perfbench_ab.py PARENT_DIR CHANGE_DIR WORKLOAD PAIRS
        [--seconds S] [--first-seed N] [--trace 0|1] [--metrics a,b,...]

Each tree runs its own perfbench/run.py from its own root, with
CARGO_TARGET_DIR set to <tree>/.bench_build so the two builds never share
objects.  Both trees are built (one short warm-up run each) before any
timed pair.  Pair i uses seed N + i for both trees, and the order
alternates: even pairs run the parent first, odd pairs the change first,
so an effect of running second falls on both sides equally.

Prints every pair's values and change/parent ratio, then per metric both
medians and quartiles, the median ratio, the pairs the change won (by
the metric's "better" direction in the change tree's BENCHMARK.json),
and whether the medians differ by more than the parent's quartile
distance.  It also compares HostProbe::run's address modulo 64 in
the two binaries: when they differ, every timed figure is biased (see
docs/benchmarks.md, "Host-probe alignment").  Exits 1 when a run fails or
reports "correct": false.

Each run starts in its own process group.  On SIGINT or SIGTERM the script
sends SIGTERM to the running side's whole group (run.py, its cmake build
and hds_perfbench) and reaps every descendant before it exits, so no child
outlives it.  The script is its descendants' subreaper (Linux), so a
grandchild orphaned by run.py's death is reaped here too.
"""

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys

# The side running now, if any: the process group stop() terminates.
running = []


def fail(message):
    print("perfbench_ab: " + message, file=sys.stderr)
    sys.exit(1)


def stop(signum, frame):
    for child in running:
        try:
            os.killpg(child.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break
    sys.exit(128 + signum)


def run_once(tree, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    child = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    running.append(child)
    try:
        stdout, _ = child.communicate()
    finally:
        running.remove(child)
    if child.returncode != 0:
        fail("%s: run of %s seed %d exited %d"
             % (tree, workload, seed, child.returncode))
    result = json.loads(stdout.strip().splitlines()[-1])
    if not result.get("correct"):
        fail("%s: %s seed %d is not correct" % (tree, workload, seed))
    return {name: m["value"] for name, m in result["metrics"].items()}


def probe_offset(tree):
    """HostProbe::run's address modulo 64 in the tree's build, or None."""
    binary = os.path.join(tree, ".bench_build", "perfbench", "hds_perfbench")
    done = subprocess.run(["nm", "-C", binary], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    for line in done.stdout.splitlines():
        if line.endswith(" perfbench::HostProbe::run()"):
            return int(line.split()[0], 16) % 64
    return None


def show(value):
    if float(value).is_integer() and abs(value) >= 1e4:
        return "{:,}".format(int(value))
    if abs(value) >= 1e6:
        return "%.2fM" % (value / 1e6)
    return "%.4g" % value


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("workload")
    parser.add_argument("pairs", type=int)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--metrics", default=None,
                        help="comma-separated; default: the end-to-end ones")
    args = parser.parse_args()
    PR_SET_CHILD_SUBREAPER = 36
    ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    signal.signal(signal.SIGINT, stop)
    signal.signal(signal.SIGTERM, stop)
    trees = (os.path.abspath(args.parent), os.path.abspath(args.change))

    with open(os.path.join(trees[1], "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}
    names = (args.metrics.split(",") if args.metrics
             else [m["name"] for m in bench["end_to_end"]])

    for tree in trees:
        run_once(tree, args.workload, 0, 1, args.trace)
    offsets = [probe_offset(tree) for tree in trees]
    print("HostProbe::run mod 64: parent %s, change %s%s"
          % (offsets[0], offsets[1],
             "" if offsets[0] == offsets[1] else
             "  -- DIFFERENT: timed figures are biased"))

    runs = ([], [])
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            runs[side].append(run_once(trees[side], args.workload, seed,
                                       args.seconds, args.trace))
        first = "parent" if order[0] == 0 else "change"
        cells = []
        for name in names:
            a, b = runs[0][-1].get(name), runs[1][-1].get(name)
            ratio = "%+.1f%%" % (100 * (b / a - 1)) if a else "-"
            cells.append("%s %s -> %s (%s)" % (name, show(a), show(b), ratio))
        print("pair %d seed %d, %s first: %s"
              % (i + 1, seed, first, "; ".join(cells)), flush=True)

    print("\n| metric | parent median (q1-q3) | change median (q1-q3) "
          "| median ratio | pairs won | move > parent IQR |")
    print("|---|---|---|---|---|---|")
    for name in names:
        a = [r[name] for r in runs[0] if name in r]
        b = [r[name] for r in runs[1] if name in r]
        if len(a) != len(b) or not a:
            continue
        qa, qb = quartiles(a), quartiles(b)
        ratios = [y / x for x, y in zip(a, b) if x]
        higher = better.get(name, "lower") == "higher"
        won = sum(1 for x, y in zip(a, b) if (y > x if higher else y < x))
        ratio = ("%+.1f%%" % (100 * (statistics.median(ratios) - 1))
                 if ratios else "-")
        beyond = abs(qb[1] - qa[1]) > qa[2] - qa[0]
        print("| `%s` | %s (%s-%s) | %s (%s-%s) | %s | %d/%d | %s |"
              % (name, show(qa[1]), show(qa[0]), show(qa[2]), show(qb[1]),
                 show(qb[0]), show(qb[2]), ratio, won, len(a),
                 "yes" if beyond else "no"))


if __name__ == "__main__":
    main()
