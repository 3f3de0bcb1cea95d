#!/usr/bin/env bash
# End-to-end smoke test of the serve daemon: builds the CLI, trains a
# model store from the generated 28SOI example library, starts `caml
# serve` on a Unix socket, fires 100 concurrent `caml query` clients at
# it, and checks every served prediction byte-for-byte against `caml
# predict` output. Also exercises the SIGUSR1 stats dump and graceful
# SIGTERM shutdown, and checks that `caml predict --jobs` is
# thread-count-invariant. The same storm then runs against a daemon
# serving the mmap'ed binary store (`caml store --to-binary`) — every
# answer must match the text-backed reference byte-for-byte. Exits
# nonzero on any mismatch. Pass a different build dir as $1.
set -eu
BUILD_DIR="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -S "$ROOT" >/dev/null
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

echo "== generate + characterize example library"
"$BUILD_DIR"/examples/characterize_library "$WORK/lib" >/dev/null
"$CAML" train "$WORK/lib/28SOI.sp" "$WORK/lib" -o "$WORK/groups.caml" --trees 16 >/dev/null

echo "== reference predictions (and --jobs invariance)"
"$CAML" predict "$WORK/lib/28SOI.sp" -m "$WORK/groups.caml" -o "$WORK/ref" --jobs 1 >/dev/null
"$CAML" predict "$WORK/lib/28SOI.sp" -m "$WORK/groups.caml" -o "$WORK/par" --jobs 4 >/dev/null
diff -r "$WORK/ref" "$WORK/par" >/dev/null \
  || { echo "FAIL: caml predict output differs between --jobs 1 and --jobs 4"; exit 1; }

# One single-cell netlist for the query storm.
CELL=NAND2X1
awk "/^\.SUBCKT $CELL /,/^\.ENDS/" "$WORK/lib/28SOI.sp" > "$WORK/cell.sp"
[ -s "$WORK/cell.sp" ] || { echo "FAIL: could not extract $CELL from the library"; exit 1; }

echo "== start daemon"
SOCK="$WORK/serve.sock"
"$CAML" serve "$WORK/groups.caml" --socket "$SOCK" --jobs 2 --max-queue 128 \
  2>"$WORK/server.err" &
SERVER_PID=$!

ready=0
for _ in $(seq 1 50); do
  if "$CAML" query --ping --socket "$SOCK" >/dev/null 2>&1; then ready=1; break; fi
  sleep 0.1
done
[ "$ready" = 1 ] || { echo "FAIL: server never answered ping"; cat "$WORK/server.err"; exit 1; }

echo "== 100 concurrent queries"
pids=""
for i in $(seq 1 100); do
  "$CAML" query "$WORK/cell.sp" --socket "$SOCK" -o "$WORK/out_$i" >/dev/null 2>&1 &
  pids="$pids $!"
done
failed=0
for pid in $pids; do
  wait "$pid" || failed=$((failed + 1))
done
[ "$failed" = 0 ] || { echo "FAIL: $failed of 100 queries errored"; cat "$WORK/server.err"; exit 1; }

mismatch=0
for i in $(seq 1 100); do
  cmp -s "$WORK/ref/$CELL.camodel" "$WORK/out_$i/$CELL.camodel" || mismatch=$((mismatch + 1))
done
[ "$mismatch" = 0 ] \
  || { echo "FAIL: $mismatch of 100 served predictions differ from caml predict"; exit 1; }

echo "== stats dump (SIGUSR1) + graceful shutdown (SIGTERM)"
kill -USR1 "$SERVER_PID"
sleep 0.3
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "FAIL: server exited nonzero"; cat "$WORK/server.err"; exit 1; }

grep -q "serve_stats:" "$WORK/server.err" \
  || { echo "FAIL: no serve_stats block in server log"; cat "$WORK/server.err"; exit 1; }
awk '/requests_ok/ {v=$2} END {exit (v >= 100) ? 0 : 1}' "$WORK/server.err" \
  || { echo "FAIL: stats report fewer than 100 ok requests"; cat "$WORK/server.err"; exit 1; }

echo "== binary-store daemon: convert, serve, same storm"
"$CAML" store "$WORK/groups.caml" --to-binary "$WORK/groups.bin.caml" >/dev/null
SOCKB="$WORK/servebin.sock"
"$CAML" serve "$WORK/groups.bin.caml" --socket "$SOCKB" --jobs 2 --max-queue 128 \
  2>"$WORK/serverbin.err" &
SERVER_PID=$!

ready=0
for _ in $(seq 1 50); do
  if "$CAML" query --ping --socket "$SOCKB" >/dev/null 2>&1; then ready=1; break; fi
  sleep 0.1
done
[ "$ready" = 1 ] \
  || { echo "FAIL: binary-store server never answered ping"; cat "$WORK/serverbin.err"; exit 1; }
grep -q "opened binary model store" "$WORK/serverbin.err" \
  || { echo "FAIL: daemon did not open the store via the mmap path"; cat "$WORK/serverbin.err"; exit 1; }

pids=""
for i in $(seq 1 100); do
  "$CAML" query "$WORK/cell.sp" --socket "$SOCKB" -o "$WORK/bin_$i" >/dev/null 2>&1 &
  pids="$pids $!"
done
failed=0
for pid in $pids; do
  wait "$pid" || failed=$((failed + 1))
done
[ "$failed" = 0 ] \
  || { echo "FAIL: $failed of 100 binary-store queries errored"; cat "$WORK/serverbin.err"; exit 1; }

mismatch=0
for i in $(seq 1 100); do
  cmp -s "$WORK/ref/$CELL.camodel" "$WORK/bin_$i/$CELL.camodel" || mismatch=$((mismatch + 1))
done
[ "$mismatch" = 0 ] \
  || { echo "FAIL: $mismatch of 100 binary-store answers differ from the text reference"; exit 1; }

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "FAIL: binary-store server exited nonzero"; cat "$WORK/serverbin.err"; exit 1; }
SERVER_PID=""
awk '/requests_ok/ {v=$2} END {exit (v >= 100) ? 0 : 1}' "$WORK/serverbin.err" \
  || { echo "FAIL: binary-store stats report fewer than 100 ok requests"; cat "$WORK/serverbin.err"; exit 1; }

echo "serve smoke test passed (100/100 byte-identical on both backends)"
