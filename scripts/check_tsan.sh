#!/usr/bin/env bash
# Vets the concurrent paths (ThreadPool, parallel characterization,
# parallel forest training, the active-learning scoring/retraining
# loop, and the serve reactor + compute plane:
# reactor thread, worker batches, wakeup pipe, stats, hot reload, the
# sojourn-shed admission policy and store-fault recovery) under
# ThreadSanitizer. Fault injection is compiled in so the NetFault
# regression tests (EINTR/EAGAIN storms, trickles, injected resets) run
# instead of skipping. Intended for local pre-merge checks and CI; pass
# a different build dir as $1.
set -eu
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S "$(dirname "$0")/.." -DCAML_SANITIZE=thread -DCAML_FAULT_INJECTION=ON
cmake --build "$BUILD_DIR" -j "$(nproc)" --target caml_tests
"$BUILD_DIR"/tests/caml_tests --gtest_filter='ThreadPool*:Parallel*:ResolveJobs*:RandomForest*:Characterize*:Obs*:Serve*:NetFault*:BinaryStore*:Active*'
echo "TSan concurrency check passed"
