// E13 — throughput of the serve daemon's event-loop architecture. Two
// sweeps against an in-process Server:
//
//   * roundtrip: a fixed pool of concurrent clients, one request in
//     flight per connection (the only mode the old thread-per-connection
//     server could serve), worker-thread count sweeping 1/2/4/8.
//     p50/p99 are client-observed round trips.
//   * pipelined: the same clients keep `window` requests in flight on
//     one connection each; the reactor coalesces the decoded requests
//     across connections into batches, and the compute plane runs one
//     predict_product walk per request of a batch. p50/p99 are
//     server-side decode-to-response-written latencies, and batch_mean
//     shows the realized coalescing.
//
// Both sweeps end with a determinism check: every configuration and
// both modes must produce byte-identical predictions. The roundtrip
// sweep also gates the tail: p99/p50 must stay below 10 at every worker
// count. Exit status 1 on a dropped request, a divergent prediction or
// a tail ratio of 10 or more. --quick shrinks the sweep to a
// seconds-scale smoke for the cmake `verify` target.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "flow/characterize.hpp"
#include "flow/model_store.hpp"
#include "libgen/builder.hpp"
#include "netlist/spice_writer.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

namespace {

using namespace caml;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kClients = 8;  // concurrent connections

struct RunResult {
  std::size_t total = 0;   // requests answered kPredictOk
  double seconds = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double batch_mean = 0.0;  // pipelined mode only
  std::string first_model;
  bool all_ok = false;
};

Library make_training_library() {
  LibraryComposition comp;
  comp.functions = {"NAND2", "NOR2"};
  comp.drives = {{1, StructureVariant::kWide}};
  comp.flavors = {{"", 1.0}};
  return build_library(technology_28soi(), comp);
}

/// One request in flight per connection: every round trip pays the full
/// wire + dispatch + compute + wire cost before the next request starts.
RunResult run_roundtrip(const GroupModelStore& store, const std::string& netlist,
                        const std::string& socket_path, std::size_t workers,
                        std::size_t requests_per_client) {
  serve::ServerOptions options;
  options.socket_path = socket_path;
  options.jobs = workers;
  options.max_queue = kClients;
  serve::Server server(store, options);
  server.start();

  std::vector<std::string> first_model(kClients);
  std::vector<std::size_t> completed(kClients, 0);
  obs::Histogram latency;  // client-observed round-trip, microseconds
  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      serve::ClientOptions copts;
      copts.socket_path = socket_path;
      serve::Client client(copts);
      for (std::size_t r = 0; r < requests_per_client; ++r) {
        try {
          const Stopwatch watch;
          const std::string model = client.predict_cell(netlist);
          latency.record(
              static_cast<std::uint64_t>(std::max<std::int64_t>(watch.elapsed_us(), 0)));
          if (r == 0) first_model[c] = model;
          ++completed[c];
        } catch (const Error& e) {
          std::cerr << "client " << c << " request failed: " << e.what() << '\n';
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  RunResult result;
  result.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  server.stop();

  for (std::size_t c = 0; c < kClients; ++c) {
    result.total += completed[c];
    if (result.first_model.empty()) result.first_model = first_model[c];
  }
  result.all_ok = result.total == kClients * requests_per_client;
  const obs::HistogramSnapshot lat = latency.snapshot();
  result.p50_ms = lat.percentile(0.50) / 1000.0;
  result.p99_ms = lat.percentile(0.99) / 1000.0;
  return result;
}

/// `window` requests in flight per connection: the reactor decodes ahead
/// of the compute plane and coalesces requests across all connections
/// into batches (one predict_product walk per request).
RunResult run_pipelined(const GroupModelStore& store, const std::string& netlist,
                        const std::string& socket_path, std::size_t workers,
                        std::size_t window, std::size_t requests_per_client) {
  serve::ServerOptions options;
  options.socket_path = socket_path;
  options.jobs = workers;
  options.max_queue = kClients;
  serve::Server server(store, options);
  server.start();

  std::vector<std::string> first_model(kClients);
  std::vector<std::size_t> completed(kClients, 0);
  const std::vector<std::string> batch(requests_per_client, netlist);
  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      serve::ClientOptions copts;
      copts.socket_path = socket_path;
      serve::Client client(copts);
      try {
        const std::vector<serve::BatchResult> results = client.predict_cells(batch, window);
        for (const serve::BatchResult& r : results) {
          if (!r.ok()) continue;
          if (completed[c] == 0) first_model[c] = r.payload;
          ++completed[c];
        }
      } catch (const Error& e) {
        std::cerr << "client " << c << " batch failed: " << e.what() << '\n';
      }
    });
  }
  for (std::thread& t : clients) t.join();
  RunResult result;
  result.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  const serve::StatsSnapshot stats = server.stats();
  server.stop();

  for (std::size_t c = 0; c < kClients; ++c) {
    result.total += completed[c];
    if (result.first_model.empty()) result.first_model = first_model[c];
  }
  result.all_ok = result.total == kClients * requests_per_client;
  result.p50_ms = stats.latency_p50_ms;  // server-side decode-to-written
  result.p99_ms = stats.latency_p99_ms;
  result.batch_mean = stats.batch_mean;
  return result;
}

double tail_ratio(const RunResult& r) {
  return r.p50_ms > 0.0 ? r.p99_ms / r.p50_ms : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  std::cout << "serve throughput (hardware threads: "
            << std::thread::hardware_concurrency() << ")\n";

  const Library lib = make_training_library();
  const std::vector<CharacterizedCell> training =
      characterize_library(lib, CharacterizeOptions{});
  MlOptions ml;
  ml.forest.num_trees = 32;
  const GroupModelStore store = GroupModelStore::train(training, ml);
  // Query the first library cell — a served request re-derives everything
  // (parse, canonicalize, matrix, golden sim, classify) from the netlist
  // text, so querying a training member still measures the full path.
  const std::string netlist = SpiceWriter().to_string(lib.cells.front().cell);
  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       ("caml_bench_serve_" + std::to_string(::getpid()) + ".sock"))
          .string();

  const std::size_t requests_per_client = quick ? 10 : 50;
  const std::vector<std::size_t> worker_sweep =
      quick ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4, 8};
  const std::vector<std::size_t> window_sweep =
      quick ? std::vector<std::size_t>{8} : std::vector<std::size_t>{1, 8, 32};

  std::cout << kClients << " concurrent clients x " << requests_per_client
            << " requests each" << (quick ? " (--quick)" : "") << "\n\n";

  std::string baseline_model;
  bool identical = true;
  bool all_ok = true;
  const auto check = [&](const RunResult& r) {
    all_ok = all_ok && r.all_ok;
    if (r.first_model.empty()) return;
    if (baseline_model.empty()) baseline_model = r.first_model;
    identical = identical && r.first_model == baseline_model;
  };

  std::cout << "mode roundtrip (one request in flight per connection,\n"
               "client-observed round-trip latency):\n";
  TextTable roundtrip;
  roundtrip.new_row();
  roundtrip.cell("workers");
  roundtrip.cell("requests");
  roundtrip.cell("seconds");
  roundtrip.cell("req/s");
  roundtrip.cell("p50 ms");
  roundtrip.cell("p99 ms");
  roundtrip.cell("p99/p50");
  roundtrip.cell("speedup");
  // The event-loop server keeps the roundtrip tail single-digit; the
  // pinned-worker design it replaced sat near 200x at workers=1.
  constexpr double kMaxTailRatio = 10.0;
  bool tails_ok = true;
  double baseline_seconds = 0.0;
  for (const std::size_t workers : worker_sweep) {
    const RunResult r =
        run_roundtrip(store, netlist, socket_path, workers, requests_per_client);
    check(r);
    tails_ok = tails_ok && tail_ratio(r) < kMaxTailRatio;
    if (workers == worker_sweep.front()) baseline_seconds = r.seconds;
    roundtrip.new_row();
    roundtrip.cell(std::to_string(workers));
    roundtrip.cell(std::to_string(r.total));
    roundtrip.cell(r.seconds, 3);
    roundtrip.cell(static_cast<double>(r.total) / r.seconds, 1);
    roundtrip.cell(r.p50_ms, 2);
    roundtrip.cell(r.p99_ms, 2);
    roundtrip.cell(tail_ratio(r), 1);
    roundtrip.cell(baseline_seconds / r.seconds, 2);
  }
  roundtrip.print(std::cout);

  const std::size_t pipeline_workers = worker_sweep.back();
  std::cout << "\nmode pipelined (" << pipeline_workers
            << " workers; `window` requests in flight per connection,\n"
               "server-side decode-to-response-written latency; batch_mean =\n"
               "requests coalesced per cross-connection batch, one\n"
               "predict_product walk each):\n";
  TextTable pipelined;
  pipelined.new_row();
  pipelined.cell("window");
  pipelined.cell("requests");
  pipelined.cell("seconds");
  pipelined.cell("req/s");
  pipelined.cell("p50 ms");
  pipelined.cell("p99 ms");
  pipelined.cell("p99/p50");
  pipelined.cell("batch_mean");
  for (const std::size_t window : window_sweep) {
    const RunResult r = run_pipelined(store, netlist, socket_path, pipeline_workers,
                                      window, requests_per_client);
    check(r);
    pipelined.new_row();
    pipelined.cell(std::to_string(window));
    pipelined.cell(std::to_string(r.total));
    pipelined.cell(r.seconds, 3);
    pipelined.cell(static_cast<double>(r.total) / r.seconds, 1);
    pipelined.cell(r.p50_ms, 2);
    pipelined.cell(r.p99_ms, 2);
    pipelined.cell(tail_ratio(r), 1);
    pipelined.cell(r.batch_mean, 2);
  }
  pipelined.print(std::cout);

  std::cout << "all requests served: " << (all_ok ? "yes" : "NO — DROPPED REQUESTS")
            << "\npredictions identical across configurations: "
            << (identical ? "yes" : "NO — DETERMINISM BUG")
            << "\nroundtrip p99/p50 below " << format_fixed(kMaxTailRatio, 0)
            << " at every worker count: " << (tails_ok ? "yes" : "NO — TAIL REGRESSION") << '\n';
  return (all_ok && identical && tails_ok) ? 0 : 1;
}
