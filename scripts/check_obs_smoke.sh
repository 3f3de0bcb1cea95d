#!/usr/bin/env bash
# Observability smoke test: runs the characterize / train / predict
# flows with --trace and --profile on the generated example library and
# checks that (a) each flow emits a well-formed Chrome-trace JSON
# containing the stage spans it is supposed to, (b) the profile summary
# table appears, (c) outputs are byte-identical with observability on
# and off, and (d) a live daemon answers `caml query --stats` with the
# unified registry exposition. Pass a different build dir as $1.
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

# check_trace FILE SPAN... — well-formed JSON containing every span name.
check_trace() {
  trace="$1"; shift
  [ -s "$trace" ] || { echo "FAIL: trace $trace missing or empty"; exit 1; }
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$trace" "$@" <<'EOF' || exit 1
import json, sys
path, spans = sys.argv[1], sys.argv[2:]
with open(path) as f:
    doc = json.load(f)  # parse failure => malformed trace
events = doc["traceEvents"]
assert events, f"{path}: no trace events"
names = {e["name"] for e in events}
for e in events:
    for key in ("name", "ph", "pid", "tid", "ts", "dur"):
        assert key in e, f"{path}: event missing {key}: {e}"
missing = [s for s in spans if s not in names]
assert not missing, f"{path}: missing spans {missing}; have {sorted(names)}"
assert doc.get("otherData", {}).get("dropped_events") == 0, f"{path}: dropped events"
EOF
  else
    # No python3: at least require every span name to appear.
    for span in "$@"; do
      grep -q "\"$span\"" "$trace" \
        || { echo "FAIL: $trace lacks span $span"; exit 1; }
    done
  fi
}

echo "== generate example library"
"$BUILD_DIR"/examples/characterize_library "$WORK/lib" >/dev/null
LIB="$WORK/lib/28SOI.sp"

echo "== characterize: --trace/--profile vs plain must be byte-identical"
"$CAML" characterize "$LIB" -o "$WORK/char_plain" --jobs 2 >"$WORK/char_plain.out"
"$CAML" characterize "$LIB" -o "$WORK/char_obs" --jobs 2 \
  --trace "$WORK/char.trace.json" --profile \
  >"$WORK/char_obs.out" 2>"$WORK/char_obs.err"
# The journal names its directory-invariant content identically; compare
# the artifacts and the report.
diff -r "$WORK/char_plain" "$WORK/char_obs" >/dev/null \
  || { echo "FAIL: characterize output differs with --trace/--profile"; exit 1; }
# The report's last line names the output dir; compare everything else.
diff <(grep -v "^wrote " "$WORK/char_plain.out") \
     <(grep -v "^wrote " "$WORK/char_obs.out") >/dev/null \
  || { echo "FAIL: characterize report differs with --trace/--profile"; exit 1; }
check_trace "$WORK/char.trace.json" \
  characterize_cell generate_ca_model golden_sim simulate checkpoint_flush
grep -q "profile (wall" "$WORK/char_obs.err" \
  || { echo "FAIL: no profile summary on stderr"; cat "$WORK/char_obs.err"; exit 1; }
grep -q "generate_ca_model" "$WORK/char_obs.err" \
  || { echo "FAIL: profile summary lacks generate_ca_model"; cat "$WORK/char_obs.err"; exit 1; }

echo "== train: trace covers matrix build and forest fitting"
"$CAML" train "$LIB" "$WORK/char_plain" -o "$WORK/groups.caml" --trees 8 \
  --trace "$WORK/train.trace.json" >/dev/null 2>&1
check_trace "$WORK/train.trace.json" train_group matrix_build forest_fit

echo "== predict: trace covers matrix build, golden sim and prediction"
"$CAML" predict "$LIB" -m "$WORK/groups.caml" -o "$WORK/pred_plain" --jobs 2 >/dev/null
"$CAML" predict "$LIB" -m "$WORK/groups.caml" -o "$WORK/pred_obs" --jobs 2 \
  --trace "$WORK/predict.trace.json" >/dev/null
diff -r "$WORK/pred_plain" "$WORK/pred_obs" >/dev/null \
  || { echo "FAIL: predict output differs with --trace"; exit 1; }
check_trace "$WORK/predict.trace.json" \
  predict_ca_model matrix_build predict golden_sim

echo "== serve: caml query --stats returns the unified registry snapshot"
SOCK="$WORK/serve.sock"
"$CAML" serve "$WORK/groups.caml" --socket "$SOCK" --jobs 2 2>"$WORK/server.err" &
SERVER_PID=$!
ready=0
for _ in $(seq 1 50); do
  if "$CAML" query --ping --socket "$SOCK" >/dev/null 2>&1; then ready=1; break; fi
  sleep 0.1
done
[ "$ready" = 1 ] || { echo "FAIL: server never answered ping"; cat "$WORK/server.err"; exit 1; }

CELL=NAND2X1
awk "/^\.SUBCKT $CELL /,/^\.ENDS/" "$LIB" > "$WORK/cell.sp"
"$CAML" query "$WORK/cell.sp" --socket "$SOCK" >/dev/null

"$CAML" query --stats --socket "$SOCK" > "$WORK/stats.txt"
for needle in \
  "# TYPE caml_serve_requests_ok_total counter" \
  "# TYPE caml_serve_request_latency_us histogram" \
  "caml_serve_request_latency_us_count" \
  "caml_forest_rows_predicted_total" \
  "caml_pool_tasks_total"; do
  grep -q "$needle" "$WORK/stats.txt" \
    || { echo "FAIL: --stats output lacks '$needle'"; cat "$WORK/stats.txt"; exit 1; }
done

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "FAIL: server exited nonzero"; cat "$WORK/server.err"; exit 1; }
SERVER_PID=""

echo "obs smoke test passed (traces well-formed, outputs byte-identical, --stats live)"
