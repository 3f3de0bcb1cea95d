#!/usr/bin/env bash
# Crash-safety harness: builds an instrumented tree with
# -DCAML_FAULT_INJECTION=ON, runs the fault-gated unit tests, then
# drives the CLI end to end:
#
#   * kill sweep — SIGKILLs `caml characterize` at the Nth persistence
#     operation for N = 1, 2, ... (via CAML_FAULT="*:kill:N"), resumes
#     with --resume, and byte-compares the final model directory against
#     an uninterrupted reference run, serially and with --jobs 3;
#   * corrupt-store rejection — a bit-flipped model store must make
#     `caml serve` refuse startup with exit code 3 and `caml predict`
#     fail loudly;
#   * binary-store publish sweep — SIGKILL at the Nth persistence op and
#     a torn rename during `caml store --to-binary` must leave the
#     target byte-identical to the previous complete store;
#   * SIGHUP hot reload — a failed reload (corrupt file on disk) keeps
#     the daemon serving the old models; a good reload is counted.
#     Exercised against both the text and the binary (mmap) backend.
#
# Exits nonzero on any violation. Pass a different build dir as $1.
set -eu
BUILD_DIR="${1:-build-fault}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -S "$ROOT" -DCAML_FAULT_INJECTION=ON >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target caml_cli caml_tests characterize_library >/dev/null
CAML="$BUILD_DIR/tools/caml"

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -9 "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

corrupt_byte() {
  # Flips one byte near the end of $1 (inside the framed payload, past
  # the container header — exactly what the CRC must catch).
  local file="$1" size offset
  size=$(wc -c < "$file")
  offset=$((size - 4))
  printf '\377' | dd of="$file" bs=1 seek="$offset" conv=notrunc 2>/dev/null
}

echo "== fault-gated unit tests"
"$BUILD_DIR"/tests/caml_tests --gtest_filter='IoFault*:DurabilityFault*' \
  | grep -q 'PASSED' || { echo "FAIL: fault-injection unit tests failed"; exit 1; }

echo "== generate a small library"
"$BUILD_DIR"/examples/characterize_library "$WORK/lib" >/dev/null
# First three cells are plenty for the kill sweep and keep it fast.
awk '/^\.SUBCKT/{n++} n<=3' "$WORK/lib/28SOI.sp" > "$WORK/small.sp"
grep -q '^\.SUBCKT' "$WORK/small.sp" || { echo "FAIL: no cells extracted"; exit 1; }

echo "== kill sweep: SIGKILL at the Nth persistence op, resume, byte-compare"
"$CAML" characterize "$WORK/small.sp" -o "$WORK/ref" --jobs 1 --checkpoint-every 1 \
  >/dev/null 2>&1
# The serial pass walks the persistence ops in a fixed order. The --jobs 3
# pass races the three cells' artifact writes and journal records; the
# fault counter is mutex-guarded, so the op count (and the bound) is the
# same, while which write op n hits depends on the schedule.
for jobs in 1 3; do
  echo "   --jobs $jobs"
  completed_without_kill=0
  for n in $(seq 1 24); do
    rm -rf "$WORK/run"
    status=0
    CAML_FAULT="*:kill:$n" "$CAML" characterize "$WORK/small.sp" -o "$WORK/run" \
      --jobs "$jobs" --checkpoint-every 1 >/dev/null 2>&1 || status=$?
    if [ "$status" = 0 ]; then
      # The run outlived the fault: every persistence op < n already
      # survived a kill, so the sweep is complete.
      completed_without_kill=1
      diff -r "$WORK/ref" "$WORK/run" >/dev/null \
        || { echo "FAIL: un-killed --jobs $jobs run at n=$n differs from reference"; exit 1; }
      break
    fi
    [ "$status" = 137 ] \
      || { echo "FAIL: --jobs $jobs kill:$n exited with $status, expected SIGKILL (137)"; exit 1; }
    "$CAML" characterize "$WORK/small.sp" -o "$WORK/run" --resume \
      --jobs "$jobs" --checkpoint-every 1 >/dev/null 2>&1 \
      || { echo "FAIL: --jobs $jobs resume after kill:$n failed"; exit 1; }
    diff -r "$WORK/ref" "$WORK/run" >/dev/null \
      || { echo "FAIL: resumed directory differs from reference after --jobs $jobs kill:$n"; diff -r "$WORK/ref" "$WORK/run" | head; exit 1; }
  done
  [ "$completed_without_kill" = 1 ] \
    || { echo "FAIL: --jobs $jobs sweep never ran past the last persistence op (raise the bound)"; exit 1; }
done

echo "== generation-flow kill sweeps: SIGKILL mid-acquisition, resume, byte-compare"
# Three more cells as the target half; the generation loop journals each
# acquisition, so a killed run resumed with --resume must converge to
# the same journal and model-store bytes as an uninterrupted one — under
# the active policy and under the structural (Fig. 7) policy. The
# structural targets (cells 6-8) hold a new structure (NAND2X1, which
# the loop acquires) and its twin (NAND2X1_LP, then predicted).
awk '/^\.SUBCKT/{n++} n>=4 && n<=6' "$WORK/lib/28SOI.sp" > "$WORK/target_active.sp"
awk '/^\.SUBCKT/{n++} n>=6 && n<=8' "$WORK/lib/28SOI.sp" > "$WORK/target_structural.sp"
for routing in active structural; do
  grep -q '^\.SUBCKT' "$WORK/target_$routing.sp" \
    || { echo "FAIL: no $routing target cells extracted"; exit 1; }
  "$CAML" characterize "$WORK/target_$routing.sp" -o "$WORK/target_${routing}_cam" --jobs 1 \
    >/dev/null 2>&1
done
flow_run() { # flow_run ROUTING CHECKPOINT_DIR STORE [extra...]
  routing="$1"; ck="$2"; store="$3"; shift 3
  "$CAML" hybrid "$WORK/small.sp" "$WORK/ref" \
    "$WORK/target_$routing.sp" "$WORK/target_${routing}_cam" \
    --routing "$routing" --sim-budget 2 --budget-unit count --rounds 2 \
    --trees-per-round 2 --jobs 1 --checkpoint "$ck" -o "$store" "$@"
}
for routing in active structural; do
  echo "   routing $routing"
  flow_run "$routing" "$WORK/act_ref" "$WORK/act_ref.caml" >/dev/null 2>&1
  completed_without_kill=0
  for n in $(seq 1 24); do
    rm -rf "$WORK/act_run"
    rm -f "$WORK/act_run.caml"
    status=0
    CAML_FAULT="*:kill:$n" flow_run "$routing" "$WORK/act_run" "$WORK/act_run.caml" \
      >/dev/null 2>&1 || status=$?
    if [ "$status" = 0 ]; then
      completed_without_kill=1
      cmp -s "$WORK/act_run.caml" "$WORK/act_ref.caml" \
        || { echo "FAIL: un-killed $routing run at n=$n differs from reference"; exit 1; }
      break
    fi
    [ "$status" = 137 ] \
      || { echo "FAIL: $routing kill:$n exited with $status, expected SIGKILL (137)"; exit 1; }
    flow_run "$routing" "$WORK/act_run" "$WORK/act_run.caml" --resume >/dev/null 2>&1 \
      || { echo "FAIL: $routing resume after kill:$n failed"; exit 1; }
    cmp -s "$WORK/act_run.caml" "$WORK/act_ref.caml" \
      || { echo "FAIL: resumed $routing store differs from reference after kill:$n"; exit 1; }
    cmp -s "$WORK/act_run/checkpoint.journal" "$WORK/act_ref/checkpoint.journal" \
      || { echo "FAIL: resumed $routing journal differs from reference after kill:$n"; exit 1; }
  done
  [ "$completed_without_kill" = 1 ] \
    || { echo "FAIL: $routing sweep never ran past the last persistence op (raise the bound)"; exit 1; }
  rm -rf "$WORK/act_ref" "$WORK/act_ref.caml"
done

echo "== corrupt-store rejection"
"$CAML" train "$WORK/small.sp" "$WORK/ref" -o "$WORK/groups.caml" --trees 8 >/dev/null 2>&1
cp "$WORK/groups.caml" "$WORK/groups.bad.caml"
corrupt_byte "$WORK/groups.bad.caml"
status=0
"$CAML" serve "$WORK/groups.bad.caml" --socket "$WORK/reject.sock" \
  >/dev/null 2>"$WORK/reject.err" || status=$?
[ "$status" = 3 ] \
  || { echo "FAIL: serve accepted a corrupt store (exit $status, want 3)"; exit 1; }
grep -q "refusing to serve" "$WORK/reject.err" \
  || { echo "FAIL: serve rejection is not a structured error"; cat "$WORK/reject.err"; exit 1; }
status=0
"$CAML" predict "$WORK/small.sp" -m "$WORK/groups.bad.caml" -o "$WORK/nope" \
  >/dev/null 2>"$WORK/predict.err" || status=$?
[ "$status" != 0 ] || { echo "FAIL: predict loaded a corrupt store"; exit 1; }
grep -q "groups.bad.caml" "$WORK/predict.err" \
  || { echo "FAIL: predict error does not name the corrupt file"; cat "$WORK/predict.err"; exit 1; }

echo "== binary store: kill/torn-rename sweep over 'caml store --to-binary'"
# The binary writer is deterministic, so after ANY interrupted rewrite
# the target must be byte-identical to the reference: either the old
# complete bytes survived or the new (identical) bytes were published.
"$CAML" store "$WORK/groups.caml" --to-binary "$WORK/groups.bin.caml" >/dev/null
cp "$WORK/groups.bin.caml" "$WORK/groups.bin.ref"
"$CAML" store "$WORK/groups.bin.caml" --info >/dev/null \
  || { echo "FAIL: freshly converted binary store does not validate"; exit 1; }
completed_without_kill=0
for n in $(seq 1 16); do
  status=0
  CAML_FAULT="store:kill:$n" "$CAML" store "$WORK/groups.caml" \
    --to-binary "$WORK/groups.bin.caml" >/dev/null 2>&1 || status=$?
  if [ "$status" = 0 ]; then
    completed_without_kill=1
  elif [ "$status" != 137 ]; then
    echo "FAIL: store kill:$n exited with $status, expected SIGKILL (137)"; exit 1
  fi
  cmp -s "$WORK/groups.bin.caml" "$WORK/groups.bin.ref" \
    || { echo "FAIL: torn/partial binary store after kill:$n"; exit 1; }
  "$CAML" store "$WORK/groups.bin.caml" --info >/dev/null \
    || { echo "FAIL: binary store does not validate after kill:$n"; exit 1; }
  [ "$completed_without_kill" = 1 ] && break
done
[ "$completed_without_kill" = 1 ] \
  || { echo "FAIL: binary-save sweep never ran past the last persistence op"; exit 1; }
# SIGKILL legitimately strands staging temps (no destructor runs); clear
# them so the torn-rename check below only sees files IT leaks.
rm -f "$WORK"/groups.bin.caml.tmp.*
status=0
CAML_FAULT="store:torn-rename:1" "$CAML" store "$WORK/groups.caml" \
  --to-binary "$WORK/groups.bin.caml" >/dev/null 2>&1 || status=$?
[ "$status" != 0 ] || { echo "FAIL: torn rename during binary save went unnoticed"; exit 1; }
cmp -s "$WORK/groups.bin.caml" "$WORK/groups.bin.ref" \
  || { echo "FAIL: torn rename corrupted the published binary store"; exit 1; }
ls "$WORK"/groups.bin.caml.tmp.* >/dev/null 2>&1 \
  && { echo "FAIL: torn rename left a staging temp file behind"; exit 1; }
# Round trip back to text: conversion must be lossless.
"$CAML" store "$WORK/groups.bin.caml" --to-text "$WORK/groups.rt.caml" >/dev/null
cmp -s "$WORK/groups.caml" "$WORK/groups.rt.caml" \
  || { echo "FAIL: text -> binary -> text round trip is not byte-identical"; exit 1; }
# Corrupt binary store: same startup contract as the text path.
cp "$WORK/groups.bin.ref" "$WORK/groups.bin.bad"
corrupt_byte "$WORK/groups.bin.bad"
status=0
"$CAML" serve "$WORK/groups.bin.bad" --socket "$WORK/rejectbin.sock" \
  >/dev/null 2>"$WORK/rejectbin.err" || status=$?
[ "$status" = 3 ] \
  || { echo "FAIL: serve accepted a corrupt binary store (exit $status, want 3)"; exit 1; }
grep -q "refusing to serve" "$WORK/rejectbin.err" \
  || { echo "FAIL: binary rejection is not a structured error"; cat "$WORK/rejectbin.err"; exit 1; }

echo "== SIGHUP hot reload (failed reload keeps serving, good reload counted)"
SOCK="$WORK/serve.sock"
"$CAML" serve "$WORK/groups.caml" --socket "$SOCK" --jobs 2 2>"$WORK/server.err" &
SERVER_PID=$!
ready=0
for _ in $(seq 1 50); do
  if "$CAML" query --ping --socket "$SOCK" >/dev/null 2>&1; then ready=1; break; fi
  sleep 0.1
done
[ "$ready" = 1 ] || { echo "FAIL: server never answered ping"; cat "$WORK/server.err"; exit 1; }

# Corrupt the store on disk, SIGHUP: the reload must fail validation and
# the daemon must keep answering with the models it already has.
corrupt_byte "$WORK/groups.caml"
kill -HUP "$SERVER_PID"
sleep 0.5
"$CAML" query --ping --socket "$SOCK" >/dev/null 2>&1 \
  || { echo "FAIL: daemon died or stopped serving after a failed reload"; cat "$WORK/server.err"; exit 1; }
grep -q "reload of .* failed" "$WORK/server.err" \
  || { echo "FAIL: failed reload was not logged"; cat "$WORK/server.err"; exit 1; }

# Restore a valid store, SIGHUP again: the swap must be logged/counted.
"$CAML" train "$WORK/small.sp" "$WORK/ref" -o "$WORK/groups.caml" --trees 8 >/dev/null 2>&1
kill -HUP "$SERVER_PID"
sleep 0.5
grep -q "model store reloaded" "$WORK/server.err" \
  || { echo "FAIL: good reload not applied"; cat "$WORK/server.err"; exit 1; }

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "FAIL: server exited nonzero"; cat "$WORK/server.err"; exit 1; }
SERVER_PID=""
awk '/reloads/ {v=$2} END {exit (v == 1) ? 0 : 1}' "$WORK/server.err" \
  || { echo "FAIL: stats do not count exactly one successful reload"; cat "$WORK/server.err"; exit 1; }

echo "== SIGHUP hot reload on the binary (mmap) backend"
cp "$WORK/groups.bin.ref" "$WORK/groups.bin.caml"
SOCKB="$WORK/servebin.sock"
"$CAML" serve "$WORK/groups.bin.caml" --socket "$SOCKB" --jobs 2 2>"$WORK/serverbin.err" &
SERVER_PID=$!
ready=0
for _ in $(seq 1 50); do
  if "$CAML" query --ping --socket "$SOCKB" >/dev/null 2>&1; then ready=1; break; fi
  sleep 0.1
done
[ "$ready" = 1 ] \
  || { echo "FAIL: binary-store server never answered ping"; cat "$WORK/serverbin.err"; exit 1; }
grep -q "opened binary model store" "$WORK/serverbin.err" \
  || { echo "FAIL: server did not open the store via the mmap path"; cat "$WORK/serverbin.err"; exit 1; }

# Corrupt the mapped store on disk, SIGHUP: the daemon must reject the
# reload (validation happens before the swap) and keep answering.
corrupt_byte "$WORK/groups.bin.caml"
kill -HUP "$SERVER_PID"
sleep 0.5
"$CAML" query --ping --socket "$SOCKB" >/dev/null 2>&1 \
  || { echo "FAIL: binary-store daemon stopped serving after a failed reload"; cat "$WORK/serverbin.err"; exit 1; }
grep -q "reload of .* failed" "$WORK/serverbin.err" \
  || { echo "FAIL: failed binary reload was not logged"; cat "$WORK/serverbin.err"; exit 1; }

# Restore the good store, SIGHUP again: the re-map must be applied.
cp "$WORK/groups.bin.ref" "$WORK/groups.bin.caml"
kill -HUP "$SERVER_PID"
sleep 0.5
grep -q "model store reloaded" "$WORK/serverbin.err" \
  || { echo "FAIL: good binary reload not applied"; cat "$WORK/serverbin.err"; exit 1; }

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "FAIL: binary-store server exited nonzero"; cat "$WORK/serverbin.err"; exit 1; }
SERVER_PID=""
awk '/reloads/ {v=$2} END {exit (v == 1) ? 0 : 1}' "$WORK/serverbin.err" \
  || { echo "FAIL: binary stats do not count exactly one successful reload"; cat "$WORK/serverbin.err"; exit 1; }

echo "crash-safety check passed (kill sweeps byte-identical, corrupt stores rejected, hot reload safe on both backends)"
