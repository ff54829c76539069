#!/bin/sh
# Builds everything, runs the test suite, and regenerates the full
# experiment matrix through the parallel engine, capturing outputs like
# the final artifacts in the repository root.
#
# The per-figure bench binaries still exist (bench/) for focused runs;
# the canonical trajectory artifact is now one multi-threaded hds_matrix
# invocation whose JSON is byte-identical for any --jobs value (see
# docs/engine.md).
#
# Usage: scripts/run_all.sh [bench-scale]   (default 1.0)
set -e
cd "$(dirname "$0")/.."
SCALE="${1:-1.0}"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"

ctest --test-dir build --output-on-failure -j"$JOBS" 2>&1 | tee test_output.txt

scripts/lint.sh --lint-only

./build/tools/hds_matrix \
  --jobs "$JOBS" \
  --scale "$SCALE" \
  --seeds 2 \
  --timing \
  --out BENCH_matrix.json 2>&1 | tee bench_output.txt

echo "matrix results: BENCH_matrix.json"
