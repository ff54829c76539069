#!/usr/bin/env python3
"""Simulator benchmark: builds hds_perfbench, runs one workload, checks it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first run builds the simulator sources
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).  The
binary runs the workload's cells single-threaded; this script compares
every cell's simulated cycles, accesses and L1/L2 hit/miss counts with the
committed reference (BENCH_matrix.json at scale 1.0,
tests/golden/matrix_scale005.json at scale 0.05) and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md).  Any reference mismatch, repeat mismatch or
traced-run self-check failure makes the run exit 1.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_dynpref", "original_demand", "hw_zoo")
REFERENCES = {1.0: "BENCH_matrix.json", 0.05: "tests/golden/matrix_scale005.json"}
# Identity fields a reference cell must have to stand for a benchmark cell
# (everything the benchmark never varies).
FIXED_IDENTITY = {"seed": 0, "head_length": 2, "stride": False,
                  "stream_pf": False, "duel_pf": False, "pin": False,
                  "adaptive": False, "tuned": False}
# (benchmark cell key, reference key path) pairs that must agree exactly.
CHECKED = (("cycles", ("cycles",)), ("accesses", ("accesses",)),
           ("l1_hits", ("l1", "hits")), ("l1_misses", ("l1", "misses")),
           ("l2_hits", ("l2", "hits")), ("l2_misses", ("l2", "misses")))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds hds_perfbench; returns its path."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "hds_perfbench")


def cell_key(cell):
    return (cell["workload"], cell["mode"], float(cell["scale"]),
            bool(cell["pair_pf"]), bool(cell["markov"]))


def load_references(ref_root, scales):
    """Reference cells keyed like cell_key, from the committed documents."""
    refs = {}
    for scale in scales:
        path = os.path.join(ref_root, REFERENCES[scale])
        try:
            with open(path) as f:
                results = json.load(f)["results"]
        except (OSError, ValueError, KeyError) as e:
            fail("cannot read reference %s: %s" % (path, e))
        for r in results:
            if r.get("status") != "ok" or float(r.get("scale", -1)) != scale:
                continue
            if any(r.get(k) != v for k, v in FIXED_IDENTITY.items()):
                continue
            refs[cell_key(r)] = r
    return refs


def reference_failures(cells, refs):
    """One message per benchmark cell that differs from its reference."""
    failures = []
    for cell in cells:
        ref = refs.get(cell_key(cell))
        if ref is None:
            failures.append("%s: no reference cell" % cell["label"])
            continue
        for mine, path in CHECKED:
            want = ref
            for part in path:
                want = want[part]
            if cell[mine] != want:
                failures.append("%s: %s is %d, reference %d"
                                % (cell["label"], mine, cell[mine], want))
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ref-root", default=".",
                        help="directory holding the reference documents")
    args = parser.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    binary = build(build_dir)
    run = subprocess.run(
        [binary, "--run", "traced" if args.trace else "timed",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds)],
        stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        fail("hds_perfbench exited with %d" % run.returncode)
    out = json.loads(run.stdout.strip().splitlines()[-1])

    cells = out["cells"]
    refs = load_references(args.ref_root, sorted({c["scale"] for c in cells}))
    failures = reference_failures(cells, refs)
    failed_labels = {f.split(":")[0] for f in failures}
    for cell, mismatches in zip(cells, out.get("repeat_mismatches", [])):
        if mismatches:
            failures.append("%s: %d repeats differ from the first run"
                            % (cell["label"], mismatches))
            failed_labels.add(cell["label"])
    for failure in out.get("self_check_failures", []):
        failures.append("self-check: " + failure)
        failed_labels.add(failure.split(":")[0])
    for failure in failures:
        print("perfbench: " + failure, file=sys.stderr)
    if "layer_shares" in out:
        shares = ", ".join("%s %.3f" % kv for kv in out["layer_shares"].items())
        print("perfbench: share of %.2f reference-host CPU s explained by "
              "layer: %s" % (out["timed_cpu_s"], shares), file=sys.stderr)

    correct = not failures
    print(json.dumps({"correct": correct, "attempted": len(cells),
                      "failed": len(failed_labels), "metrics": out["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
