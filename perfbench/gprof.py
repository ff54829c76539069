#!/usr/bin/env python3
"""gprof cross-check of the traced run's per-layer shares.

    python3 perfbench/gprof.py [--workloads a,b] [--seconds S]

Run from the repository root.  Builds hds_perfbench with -pg into
$CARGO_TARGET_DIR/perfbench-pg (default .bench_build/perfbench-pg), runs
each workload's timed run once (one pass over its cells when S is small),
and prints gprof's flat-profile self time grouped by simulator layer.
Inlined code is charged to the function it is inlined into: the
header-inlined demand path (Runtime::access, MemoryHierarchy::access,
Cache lookups) shows up under the workload loops that call it.
"""

import argparse
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# First matching pattern wins; matched against the demangled symbol.
LAYERS = (
    ("prefetch.pair", r"PairTablePrefetcher"),
    ("prefetch.markov", r"MarkovPrefetcher"),
    ("prefetch.other", r"hds::prefetch::"),
    ("core.scan", r"hds::core::PrefetchEngine"),
    ("profiling", r"hds::profiling::"),
    ("sequitur", r"hds::sequitur::"),
    ("dfsm", r"hds::dfsm::"),
    ("analysis", r"hds::analysis::"),
    ("memsim", r"hds::memsim::"),
    ("core.runtime", r"hds::core::"),
    ("workloads", r"hds::workloads::"),
    ("engine", r"hds::engine::"),
    ("std", r"^std::|^__gnu|operator new|operator delete|^mem|^_int_"),
    ("benchmark", r"^perfbench::"),  # host probe, set-up samples, JSON
)


def layer_of(symbol):
    name = symbol.split("(")[0]  # match the function, not its parameters
    for layer, pattern in LAYERS:
        if re.search(pattern, name):
            return layer
    return "other"


def flat_profile(binary, gmon):
    text = subprocess.run(["gprof", "-b", "-p", binary, gmon],
                          stdout=subprocess.PIPE, text=True,
                          check=True).stdout
    rows = []
    for line in text.splitlines():
        # %time cumulative self [calls self/call total/call] name
        m = re.match(r"\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(.+)$",
                     line)
        if m:
            rows.append((float(m.group(3)), m.group(4).strip()))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default="paper_dynpref,original_demand,hw_zoo")
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench-pg"))
    for step in (["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_CXX_FLAGS=-pg"],
                 ["cmake", "--build", build_dir, "-j",
                  str(min(4, os.cpu_count() or 1))]):
        subprocess.run(step, stdout=subprocess.DEVNULL, check=True)
    binary = os.path.join(build_dir, "hds_perfbench")

    for workload in args.workloads.split(","):
        gmon = os.path.join(build_dir, "gmon.out")
        if os.path.exists(gmon):
            os.remove(gmon)
        subprocess.run([binary, "--run", "timed", "--workload", workload,
                        "--seed", "1", "--seconds", str(args.seconds)],
                       cwd=build_dir, stdout=subprocess.DEVNULL, check=True)
        rows = flat_profile(binary, gmon)
        total = sum(s for s, _ in rows) or 1.0
        shares = {}
        for seconds, symbol in rows:
            layer = layer_of(symbol)
            shares[layer] = shares.get(layer, 0.0) + seconds
        print("%s: %.2f s sampled" % (workload, total))
        for layer, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
            print("  %-16s %6.1f%%" % (layer, 100.0 * seconds / total))
        print("  top functions:")
        for seconds, symbol in sorted(rows, reverse=True)[:8]:
            print("    %5.1f%%  %s" % (100.0 * seconds / total, symbol[:100]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
