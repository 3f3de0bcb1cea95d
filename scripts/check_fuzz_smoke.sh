#!/usr/bin/env bash
# Fixed-seed fuzz smoke of the serve protocol decoders, run under
# ASan+UBSan: builds caml_fuzz_protocol in an address-sanitized tree and
# drives it for a bounded wall-clock budget. Any decoder crash, leak,
# overflow or round-trip identity violation fails the script. Not a
# soak — a deterministic CI gate (fixed seed, ~30 s) that keeps the
# attacker-facing byte parsers honest on every merge.
#
# Usage: check_fuzz_smoke.sh [build-dir] [seconds]
set -eu
BUILD_DIR="${1:-build-asan}"
SECONDS_BUDGET="${2:-30}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -S "$ROOT" -DCAML_SANITIZE=address >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target caml_fuzz_protocol >/dev/null

FUZZER="$BUILD_DIR/tests/fuzz/caml_fuzz_protocol"
echo "== fuzz smoke: protocol decoders, ${SECONDS_BUDGET}s, fixed seed, ASan+UBSan"
if "$FUZZER" --help 2>&1 | grep -q libFuzzer; then
  # Coverage-guided build (clang): bounded run, no corpus persistence.
  "$FUZZER" -max_total_time="$SECONDS_BUDGET" -seed=20260808 -print_final_stats=1
else
  "$FUZZER" --seconds "$SECONDS_BUDGET" --seed 20260808
fi
echo "fuzz smoke passed"
