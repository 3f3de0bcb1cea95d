#!/usr/bin/env bash
# Bench-cache identity check for E6: runs bench_algorithms with the smoke
# profile twice against one fresh CAML_BENCH_CACHE_DIR. The first run
# characterizes the suite and saves it to the cache, the second loads it
# back. Both must print the same accuracy columns (wall time excluded),
# so a bench's numbers do not depend on the state of its cache.
# Usage: scripts/check_bench_cache.sh <path to bench_algorithms>
set -euo pipefail
BENCH="${1:?usage: check_bench_cache.sh <path to bench_algorithms>}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
export CAML_BENCH_PROFILE=smoke CAML_BENCH_CACHE_DIR="$WORK/cache"

# The result table's algorithm rows without their last (wall time) column.
accuracies() {
  "$BENCH" 2>/dev/null |
    awk -F'|' '/^\| / && $2 !~ /algorithm/ { print $2 "|" $3 "|" $4 "|" $5 }'
}

accuracies > "$WORK/cold.txt"
accuracies > "$WORK/warm.txt"
grep -q RandomForest "$WORK/cold.txt" || { echo "FAIL: no result table in the cold run"; exit 1; }
if ! diff "$WORK/cold.txt" "$WORK/warm.txt"; then
  echo "FAIL: accuracies differ between the cold-cache (<) and warm-cache (>) runs"
  exit 1
fi
echo "PASS: cold and warm cache give the same accuracies"
cat "$WORK/cold.txt"
