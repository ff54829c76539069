#!/bin/sh
# Static-analysis gate: hds_lint over the tree, a -Werror build with the
# full warning set, and the tier1 suite under ASan+UBSan.
#
# Layers (each skippable, see flags):
#   1. hds_lint src tools bench tests       (determinism/invariant rules)
#   2. -Wall -Wextra -Wconversion -Wshadow -Werror build (HDS_WERROR=ON,
#      the default; this is the same build check.sh performs)
#   3. tier1 ctest under -fsanitize=address,undefined in build-asan/
#
# Usage: scripts/lint.sh [--no-sanitize] [--lint-only]
# See docs/static-analysis.md for the rule catalogue and suppression
# policy.
set -e
cd "$(dirname "$0")/.."

SANITIZE=1
LINT_ONLY=0
for Arg in "$@"; do
  case "$Arg" in
    --no-sanitize) SANITIZE=0 ;;
    --lint-only)   LINT_ONLY=1 ;;
    *) echo "usage: $0 [--no-sanitize] [--lint-only]" >&2; exit 1 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 4)"

# Layer 1+2: the -Werror build also produces the hds_lint binary.
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS" --target hds_lint
echo "== hds_lint =="
./build/tools/hds_lint src tools bench tests
echo "hds_lint: clean"

if [ "$LINT_ONLY" = 1 ]; then
  exit 0
fi

echo "== -Werror build =="
cmake --build build -j"$JOBS"

if [ "$SANITIZE" = 1 ]; then
  echo "== tier1 under ASan+UBSan =="
  cmake -B build-asan -S . -DHDS_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j"$JOBS"
  ctest --test-dir build-asan --output-on-failure -j"$JOBS" -L tier1
fi
