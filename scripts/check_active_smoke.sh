#!/usr/bin/env bash
# Active-learning smoke test: runs `caml hybrid --routing active` end to
# end on the generated example library (split into a training and a
# target half) and checks the subsystem's contract:
#   (a) the budget is respected (spent <= --sim-budget),
#   (b) stdout, the acquisition journal and the saved model store are
#       byte-identical for --jobs 1 and --jobs 4,
#   (c) a run capped at --rounds 1 then resumed to --rounds 2 produces
#       the same journal, store and stdout as an uninterrupted run,
#   (d) the `caml active` verb is the same flow,
#   (e) active reaches at least the structural baseline's mean ML
#       accuracy on this corpus,
#   (f) --resume without --checkpoint is a usage error (exit 2),
#   (g) --trees 0 is a usage error (exit 2) for train, hybrid and active,
#   (h) a non-finite --sim-budget (nan, inf, 1e999) is a usage error.
# Pass a different build dir as $1.
set -eu
BUILD_DIR="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -S "$ROOT" >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target caml_cli characterize_library >/dev/null
CAML="$BUILD_DIR/tools/caml"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "== generate example library and split it into train / target halves"
"$BUILD_DIR"/examples/characterize_library "$WORK/lib" >/dev/null
# Even-numbered SUBCKT blocks train, odd-numbered ones are the targets:
# every group shape stays represented on both sides while some target
# functions are unseen.
awk '/^\.SUBCKT/{n++} /^\.SUBCKT/,/^\.ENDS/{if (n % 2 == 0) print}' \
  "$WORK/lib/28SOI.sp" > "$WORK/train.sp"
awk '/^\.SUBCKT/{n++} /^\.SUBCKT/,/^\.ENDS/{if (n % 2 == 1) print}' \
  "$WORK/lib/28SOI.sp" > "$WORK/target.sp"
grep -q '^\.SUBCKT' "$WORK/train.sp" && grep -q '^\.SUBCKT' "$WORK/target.sp" \
  || { echo "FAIL: library split produced an empty half"; exit 1; }

"$CAML" characterize "$WORK/train.sp" -o "$WORK/train_cam" >/dev/null 2>&1
"$CAML" characterize "$WORK/target.sp" -o "$WORK/target_cam" >/dev/null 2>&1

BUDGET=3000
run_active() { # run_active JOBS CHECKPOINT_DIR STORE ROUNDS [extra...]
  jobs="$1"; ck="$2"; store="$3"; rounds="$4"; shift 4
  "$CAML" hybrid "$WORK/train.sp" "$WORK/train_cam" "$WORK/target.sp" "$WORK/target_cam" \
    --routing active --sim-budget "$BUDGET" --rounds "$rounds" --trees-per-round 2 \
    --jobs "$jobs" --checkpoint "$ck" -o "$store" "$@" 2>/dev/null
}

expect_usage_error() { # expect_usage_error LABEL CMD...
  label="$1"; shift
  status=0
  "$@" >/dev/null 2>&1 || status=$?
  [ "$status" = 2 ] || { echo "FAIL: $label exited $status, want 2"; exit 1; }
}

echo "== structural baseline"
"$CAML" hybrid "$WORK/train.sp" "$WORK/train_cam" "$WORK/target.sp" "$WORK/target_cam" \
  2>/dev/null > "$WORK/structural.out"
grep -q '^routing=structural' "$WORK/structural.out" \
  || { echo "FAIL: structural summary line missing"; exit 1; }

echo "== --resume without --checkpoint is a usage error"
expect_usage_error "--resume without --checkpoint" \
  "$CAML" hybrid "$WORK/train.sp" "$WORK/train_cam" "$WORK/target.sp" "$WORK/target_cam" --resume

echo "== --trees 0 is a usage error"
expect_usage_error "train --trees 0" \
  "$CAML" train "$WORK/train.sp" "$WORK/train_cam" -o "$WORK/empty.caml" --trees 0
[ ! -e "$WORK/empty.caml" ] || { echo "FAIL: 'train --trees 0' wrote a store"; exit 1; }
expect_usage_error "hybrid --trees 0" \
  "$CAML" hybrid "$WORK/train.sp" "$WORK/train_cam" "$WORK/target.sp" "$WORK/target_cam" --trees 0
expect_usage_error "active --trees 0" \
  "$CAML" active "$WORK/train.sp" "$WORK/train_cam" "$WORK/target.sp" "$WORK/target_cam" --trees 0

echo "== a non-finite --sim-budget is a usage error"
# A NaN budget fails every 'budget > 0' test, so it would silently mean
# "unlimited"; the parser must refuse it (and infinities) up front.
for budget in nan inf 1e999; do
  expect_usage_error "active --sim-budget $budget" \
    "$CAML" active "$WORK/train.sp" "$WORK/train_cam" "$WORK/target.sp" "$WORK/target_cam" \
    --routing active --sim-budget "$budget"
done

echo "== active: --jobs 1 vs --jobs 4 must be byte-identical"
run_active 1 "$WORK/ck1" "$WORK/m1.caml" 2 > "$WORK/active1.out"
run_active 4 "$WORK/ck4" "$WORK/m4.caml" 2 > "$WORK/active4.out"
cmp -s "$WORK/active1.out" "$WORK/active4.out" \
  || { echo "FAIL: active stdout differs between --jobs 1 and --jobs 4"; exit 1; }
cmp -s "$WORK/ck1/checkpoint.journal" "$WORK/ck4/checkpoint.journal" \
  || { echo "FAIL: acquisition journals differ between job counts"; exit 1; }
cmp -s "$WORK/m1.caml" "$WORK/m4.caml" \
  || { echo "FAIL: model stores differ between job counts"; exit 1; }

echo "== budget respected"
awk -v budget="$BUDGET" '/^routing=active/ {
  for (i = 1; i <= NF; i++) if ($i ~ /^spent=/) {
    sub(/^spent=/, "", $i)
    if ($i + 0 > budget + 0) { print "FAIL: spent " $i " exceeds budget " budget; exit 1 }
    found = 1
  }
} END { exit found ? 0 : 1 }' "$WORK/active1.out" \
  || { echo "FAIL: budget check (no summary line or overspend)"; exit 1; }

echo "== interrupted at --rounds 1 + resumed equals uninterrupted"
run_active 1 "$WORK/ckr" "$WORK/partial.caml" 1 > /dev/null
run_active 1 "$WORK/ckr" "$WORK/mr.caml" 2 --resume > "$WORK/resumed.out"
cmp -s "$WORK/ckr/checkpoint.journal" "$WORK/ck1/checkpoint.journal" \
  || { echo "FAIL: resumed journal differs from uninterrupted run"; exit 1; }
cmp -s "$WORK/mr.caml" "$WORK/m1.caml" \
  || { echo "FAIL: resumed model store differs from uninterrupted run"; exit 1; }
cmp -s "$WORK/resumed.out" "$WORK/active1.out" \
  || { echo "FAIL: resumed stdout differs from uninterrupted run"; exit 1; }

echo "== 'caml active' verb is the same flow"
"$CAML" active "$WORK/train.sp" "$WORK/train_cam" "$WORK/target.sp" "$WORK/target_cam" \
  --sim-budget "$BUDGET" --rounds 2 --trees-per-round 2 --jobs 1 \
  2>/dev/null > "$WORK/verb.out"
cmp -s "$WORK/verb.out" "$WORK/active1.out" \
  || { echo "FAIL: 'caml active' output differs from 'caml hybrid --routing active'"; exit 1; }

echo "== active accuracy >= structural baseline"
acc() { awk -v pol="$1" '$0 ~ "^routing=" pol {
  for (i = 1; i <= NF; i++) if ($i ~ /^mean-ml-accuracy=/) { sub(/^mean-ml-accuracy=/, "", $i); print $i }
}' "$2"; }
STRUCT_ACC="$(acc structural "$WORK/structural.out")"
ACTIVE_ACC="$(acc active "$WORK/active1.out")"
[ -n "$STRUCT_ACC" ] && [ -n "$ACTIVE_ACC" ] \
  || { echo "FAIL: could not parse mean-ml-accuracy"; exit 1; }
awk -v a="$ACTIVE_ACC" -v s="$STRUCT_ACC" 'BEGIN { exit (a + 0.002 >= s) ? 0 : 1 }' \
  || { echo "FAIL: active accuracy $ACTIVE_ACC below structural baseline $STRUCT_ACC"; exit 1; }
echo "   structural=$STRUCT_ACC active=$ACTIVE_ACC"

echo "PASS: active-learning smoke (budget, determinism, resume, accuracy)"
