#!/usr/bin/env bash
# Chaos harness for the serve plane: builds an instrumented tree with
# -DCAML_FAULT_INJECTION=ON and drives the daemon through seeded socket
# fault storms, client crashes, process kills, SIGHUP storms, in-place
# store truncation, and deadline sheds — asserting after every scenario
# that
#
#   * the daemon never crashes (only explicit SIGKILL/SIGTERM ends it),
#   * recovery is bounded (restart-to-ready and post-fault serving are
#     re-checked under a fixed poll deadline, never open-ended),
#   * every SUCCESSFUL response is byte-identical to the in-process
#     `caml predict` reference — fault handling may fail a request
#     loudly, but must never corrupt an answer,
#   * DEADLINE_EXCEEDED sheds consume no compute-plane work
#     (shed_expired rises while cells_predicted stays at requests_ok).
#
# Faults are injected deterministically via CAML_FAULT=<point>:<kind>:
# <nth>[:<param>] (see src/util/fault.hpp), so every scenario is
# reproducible. Exits nonzero on any violation. Pass a different build
# dir as $1.
set -eu
BUILD_DIR="${1:-build-fault}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -S "$ROOT" -DCAML_FAULT_INJECTION=ON >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target caml_cli characterize_library >/dev/null
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

fail() { echo "FAIL: $1"; [ -f "$WORK/server.err" ] && tail -20 "$WORK/server.err"; exit 1; }

# Polls the daemon to readiness within a fixed deadline (the bounded-
# recovery assertion: 50 x 0.1 s, never open-ended).
wait_ready() {
  local sock="$1"
  for _ in $(seq 1 50); do
    if "$CAML" query --ping --socket "$sock" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  return 1
}

assert_alive() { kill -0 "$SERVER_PID" 2>/dev/null || fail "$1: daemon died"; }

# Fetches one counter out of the live daemon's Prometheus snapshot.
stat_of() {
  "$CAML" query --stats --socket "$1" 2>/dev/null \
    | awk -v m="$2" '$1 == m {print $2; found=1} END {if (!found) print 0}'
}

stop_server() {
  kill -TERM "$SERVER_PID" 2>/dev/null || true
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=""
}

echo "== setup: library, store, reference predictions"
"$BUILD_DIR"/examples/characterize_library "$WORK/lib" >/dev/null
"$CAML" train "$WORK/lib/28SOI.sp" "$WORK/lib" -o "$WORK/groups.caml" --trees 16 >/dev/null
"$CAML" store "$WORK/groups.caml" --to-binary "$WORK/groups.bin.caml" >/dev/null
"$CAML" predict "$WORK/lib/28SOI.sp" -m "$WORK/groups.caml" -o "$WORK/ref" --jobs 1 >/dev/null
CELL=NAND2X1
awk "/^\.SUBCKT $CELL /,/^\.ENDS/" "$WORK/lib/28SOI.sp" > "$WORK/cell.sp"
[ -s "$WORK/cell.sp" ] || fail "could not extract $CELL from the library"
REF="$WORK/ref/$CELL.camodel"

# Runs $2 queries against $1 and byte-compares every answer to the
# reference. The daemon must survive; every query must succeed.
storm_and_compare() {
  local sock="$1" count="$2" label="$3" out
  for i in $(seq 1 "$count"); do
    out="$WORK/chaos_out"
    rm -rf "$out"
    "$CAML" query "$WORK/cell.sp" --socket "$sock" -o "$out" >/dev/null 2>&1 \
      || fail "$label: query $i errored"
    cmp -s "$REF" "$out/$CELL.camodel" || fail "$label: query $i answer differs"
  done
  assert_alive "$label"
}

echo "== scenario A: daemon-side socket fault storms"
# Each spec runs against a fresh daemon whose CAML_FAULT arms the named
# injection point for the whole process lifetime.
for spec in \
  "net-read:short-read:1:7" \
  "net-write:short-write:1:64" \
  "net-poll:eintr:1:500" \
  "net-read:eintr:1:200" \
  "net-read:eagain:1:100"; do
  SOCK="$WORK/a.sock"; rm -f "$SOCK"
  CAML_FAULT="$spec" "$CAML" serve "$WORK/groups.caml" --socket "$SOCK" --jobs 1 \
    2>"$WORK/server.err" &
  SERVER_PID=$!
  wait_ready "$SOCK" || fail "daemon[$spec] never became ready"
  storm_and_compare "$SOCK" 5 "daemon fault $spec"
  stop_server
  echo "   ok: daemon survived $spec, 5/5 byte-identical"
done

echo "== scenario B: client-side socket faults against a clean daemon"
SOCK="$WORK/b.sock"
"$CAML" serve "$WORK/groups.caml" --socket "$SOCK" --jobs 1 2>"$WORK/server.err" &
SERVER_PID=$!
wait_ready "$SOCK" || fail "clean daemon never became ready"
for spec in \
  "net-read:short-read:1:5" \
  "net-write:short-write:1:9" \
  "net-read:eintr:1:50" \
  "net-read:econnreset:1"; do
  rm -rf "$WORK/chaos_out"
  CAML_FAULT="$spec" "$CAML" query "$WORK/cell.sp" --socket "$SOCK" -o "$WORK/chaos_out" \
    >/dev/null 2>&1 || fail "client fault $spec: query errored (retry should absorb it)"
  cmp -s "$REF" "$WORK/chaos_out/$CELL.camodel" || fail "client fault $spec: answer differs"
  echo "   ok: client absorbed $spec, answer byte-identical"
done
assert_alive "client faults"

echo "== scenario C: clients dying mid-stream"
# A clean-EOF abort: the client stalls before its first send and is
# SIGKILLed, so the daemon sees a connection that opens and dies silently.
CAML_FAULT="net-write:stall:1:5000" \
  "$CAML" query "$WORK/cell.sp" --socket "$SOCK" -o "$WORK/dead_out" >/dev/null 2>&1 &
DEAD=$!
sleep 0.3
kill -9 "$DEAD" 2>/dev/null || true
wait "$DEAD" 2>/dev/null || true
# A mid-frame abort: 4 header bytes arrive, then the writer vanishes.
python3 - "$SOCK" <<'EOF'
import socket, sys, time
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.send(b"CAMQ")          # first 4 of 20 header bytes, then nothing
time.sleep(0.2)
s.close()                # mid-frame EOF
EOF
storm_and_compare "$SOCK" 3 "after mid-stream client deaths"
echo "   ok: daemon shrugged off killed and half-frame clients"
stop_server

echo "== scenario D: daemon SIGKILL -> restart-to-ready, then SIGHUP storm"
SOCK="$WORK/d.sock"
"$CAML" serve "$WORK/groups.caml" --socket "$SOCK" --jobs 1 2>"$WORK/server.err" &
SERVER_PID=$!
wait_ready "$SOCK" || fail "daemon never became ready before SIGKILL"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
rm -f "$SOCK"
"$CAML" serve "$WORK/groups.caml" --socket "$SOCK" --jobs 1 2>"$WORK/server.err" &
SERVER_PID=$!
wait_ready "$SOCK" || fail "daemon did not restart to ready within the drain deadline"
for _ in $(seq 1 5); do kill -HUP "$SERVER_PID"; sleep 0.05; done
storm_and_compare "$SOCK" 5 "SIGHUP storm"
sleep 0.2  # let the last reload land before sampling the counter
RELOADS="$(stat_of "$SOCK" caml_serve_reloads_total)"
[ "$RELOADS" -ge 1 ] || fail "SIGHUP storm: expected >= 1 reload, saw $RELOADS"
echo "   ok: restart within deadline, $RELOADS reloads under storm, answers identical"
stop_server

echo "== scenario E: backing store truncated under the live mapping"
SOCK="$WORK/e.sock"
cp "$WORK/groups.bin.caml" "$WORK/live.bin.caml"
"$CAML" serve "$WORK/live.bin.caml" --socket "$SOCK" --jobs 1 2>"$WORK/server.err" &
SERVER_PID=$!
wait_ready "$SOCK" || fail "binary-store daemon never became ready"
storm_and_compare "$SOCK" 1 "mapped store baseline"
truncate -s 4096 "$WORK/live.bin.caml"
# The in-flight mapping is now unhealthy: the next predict must fail
# loudly (INTERNAL), never crash the daemon or hand back garbage.
if "$CAML" query "$WORK/cell.sp" --socket "$SOCK" -o "$WORK/trunc_out" >/dev/null 2>&1; then
  fail "truncated store: query succeeded against a faulted mapping"
fi
assert_alive "store truncation"
FAULTS="$(stat_of "$SOCK" caml_serve_store_faults_total)"
[ "$FAULTS" -ge 1 ] || fail "truncated store: expected >= 1 store fault, saw $FAULTS"
# Restore the bytes: the refresh/reload path (or the now-consistent
# mapping) must serve byte-identical answers again, within the deadline.
cp "$WORK/groups.bin.caml" "$WORK/live.bin.caml"
wait_ready "$SOCK" || fail "daemon unreachable after store restore"
storm_and_compare "$SOCK" 3 "after store restore"
echo "   ok: store fault surfaced ($FAULTS counted), recovery byte-identical"
stop_server

echo "== scenario F: deadline sheds consume no compute"
SOCK="$WORK/f.sock"
"$CAML" serve "$WORK/groups.caml" --socket "$SOCK" --jobs 1 --max-batch 1 \
  2>"$WORK/server.err" &
SERVER_PID=$!
wait_ready "$SOCK" || fail "shed daemon never became ready"
# Saturate the single worker with no-deadline queries while 1 ms-deadline
# queries pile into the queue behind them; their budgets expire in-queue.
pids=""
for i in $(seq 1 8); do
  "$CAML" query "$WORK/cell.sp" --socket "$SOCK" -o "$WORK/blk_$i" >/dev/null 2>&1 &
  pids="$pids $!"
done
for i in $(seq 1 8); do
  "$CAML" query "$WORK/cell.sp" --socket "$SOCK" --deadline-ms 1 -o "$WORK/ddl_$i" \
    >/dev/null 2>&1 &
  pids="$pids $!"
done
for pid in $pids; do wait "$pid" || true; done  # deadline queries may fail: that IS the shed
assert_alive "deadline storm"
SHED="$(stat_of "$SOCK" caml_serve_shed_expired_total)"
OK="$(stat_of "$SOCK" caml_serve_requests_ok_total)"
CELLS="$(stat_of "$SOCK" caml_serve_cells_predicted_total)"
[ "$SHED" -ge 1 ] || fail "deadline storm: expected >= 1 expired shed, saw $SHED"
[ "$CELLS" = "$OK" ] \
  || fail "deadline storm: cells_predicted ($CELLS) != requests_ok ($OK) — sheds consumed compute"
# Every no-deadline query must have been answered byte-identically.
for i in $(seq 1 8); do
  cmp -s "$REF" "$WORK/blk_$i/$CELL.camodel" || fail "deadline storm: blocker $i answer differs"
done
echo "   ok: $SHED sheds, zero compute consumed (cells_predicted == requests_ok == $OK)"
stop_server

echo "== scenario G: sojourn-target admission under overload"
SOCK="$WORK/g.sock"
"$CAML" serve "$WORK/groups.caml" --socket "$SOCK" --jobs 1 --max-batch 1 \
  --shed-target-ms 1 2>"$WORK/server.err" &
SERVER_PID=$!
wait_ready "$SOCK" || fail "shed-target daemon never became ready"
pids=""
for i in $(seq 1 20); do
  "$CAML" query "$WORK/cell.sp" --socket "$SOCK" -o "$WORK/ovl_$i" >/dev/null 2>&1 &
  pids="$pids $!"
done
ok_count=0
for pid in $pids; do
  if wait "$pid"; then ok_count=$((ok_count + 1)); fi
done
assert_alive "overload shed storm"
# Successful answers stay byte-identical even while the policy sheds.
for i in $(seq 1 20); do
  [ -f "$WORK/ovl_$i/$CELL.camodel" ] || continue
  cmp -s "$REF" "$WORK/ovl_$i/$CELL.camodel" || fail "overload storm: answer $i differs"
done
OVER="$(stat_of "$SOCK" caml_serve_shed_overload_total)"
echo "   ok: daemon alive, $ok_count/20 served identically, $OVER admission sheds"
stop_server

echo "chaos harness passed: zero daemon crashes, bounded recovery, all answers byte-identical"
