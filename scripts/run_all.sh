#!/bin/sh
# Builds everything, runs the test suite and the linter, and regenerates
# the record of the full experiment matrix, BENCH_matrix.json.
#
# The record is `hds_matrix --repeat 3` at full scale: the 60 default
# cells, timed one at a time in one thread, each keeping its fastest of
# three wall times ("jobs": 1).  Its simulated metrics must `--diff`
# clean against the committed file; only the timing gauges move:
#   ./build/tools/hds_matrix --diff <committed copy> BENCH_matrix.json
#
# Usage: scripts/run_all.sh
set -e
cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"

ctest --test-dir build --output-on-failure -j"$JOBS" 2>&1 | tee test_output.txt

scripts/lint.sh --lint-only

./build/tools/hds_matrix \
  --repeat 3 \
  --out BENCH_matrix.json 2>&1 | tee bench_output.txt

echo "matrix results: BENCH_matrix.json"
