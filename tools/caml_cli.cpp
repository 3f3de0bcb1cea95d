// caml — command-line front end for the cell-aware generation flows.
//
//   caml characterize <lib.sp> -o <dir>        conventional CA generation
//   caml canonicalize <lib.sp>                 signatures + renaming report
//   caml train <lib.sp> <camodel-dir> -o <models.caml>
//   caml predict <lib.sp> -m <models.caml> -o <dir>
//   caml patterns <lib.sp> <camodel-dir>     cell-aware test pattern report
//   caml hybrid <train.sp> <train-camodels> <target.sp> <target-camodels>
//               [--routing structural|active|hybrid] [--sim-budget B]
//   caml active ...                          hybrid with --routing active
//   caml store <models> --to-binary <out>    convert / inspect model stores
//   caml serve <models.caml> --socket PATH   long-lived inference daemon
//   caml query <cell.sp> --socket PATH       predict via a running daemon
//
// Common options:
//   --trees N                           forest size for train (default 20)
//   --jobs N                            worker threads (default: one per
//                                       hardware thread; 1 = serial)
//   --inter-shorts                      include inter-transistor bridges
//   --checkpoint-every N                journal flush cadence (characterize)
//   --resume                            skip units a journal records done
//   --trace FILE                        write a Chrome-trace JSON of the run
//   --profile                           print a per-stage timing table on exit
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "active/learner.hpp"
#include "camodel/model_io.hpp"
#include "camodel/pattern_selection.hpp"
#include "flow/characterize.hpp"
#include "flow/hybrid.hpp"
#include "flow/model_store.hpp"
#include "netlist/spice_parser.hpp"
#include "netlist/spice_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "store/binary_store.hpp"
#include "util/error.hpp"
#include "util/io.hpp"
#include "util/log.hpp"
#include "util/net.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace caml;

struct Args {
  std::string command;
  std::vector<std::string> positional;
  std::string out;
  std::string models;
  std::size_t trees = 20;
  std::size_t jobs = std::thread::hardware_concurrency();
  bool inter_shorts = false;
  // characterize crash safety
  std::size_t checkpoint_every = 16;
  bool resume = false;
  // serve / query
  std::string socket;
  std::uint16_t port = 0;
  std::size_t max_queue = 64;
  std::size_t max_batch = 32;
  /// serve: shed new PREDICTs when queue-sojourn p99 exceeds this
  /// (daemon default on at 1000 ms; 0 disables).
  std::size_t shed_target_ms = 1000;
  /// query: per-request compute deadline shipped to the daemon
  /// (protocol v2); 0 sends v1 frames.
  std::size_t deadline_ms = 0;
  bool ping = false;
  bool stats = false;
  // store conversions
  std::string to_binary;
  std::string to_text;
  bool info = false;
  // hybrid / active flow
  std::string routing;
  double sim_budget = 0.0;
  std::string budget_unit = "seconds";
  std::size_t rounds = 8;
  std::size_t trees_per_round = 4;
  std::size_t per_round = 0;
  bool full_refit = false;
  std::string checkpoint_dir;
  // observability
  std::string trace_path;
  bool profile = false;
};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage:\n"
      "  caml characterize <lib.sp> -o <dir> [--inter-shorts] [--jobs N]\n"
      "                    [--checkpoint-every N] [--resume]\n"
      "  caml canonicalize <lib.sp>\n"
      "  caml train <lib.sp> <camodel-dir> -o <models.caml> [--trees N] [--jobs N]\n"
      "  caml predict <lib.sp> -m <models.caml> -o <dir> [--jobs N]\n"
      "  caml patterns <lib.sp> <camodel-dir>\n"
      "  caml hybrid <train.sp> <train-camodels> <target.sp> <target-camodels>\n"
      "              [--routing structural|active|hybrid] [--sim-budget B]\n"
      "              [--budget-unit seconds|count] [--rounds N] [--per-round N]\n"
      "              [--trees-per-round N] [--full-refit] [-o <models.caml>]\n"
      "              [--checkpoint DIR] [--resume] [--trees N] [--jobs N]\n"
      "  caml active ...                       (hybrid with --routing active)\n"
      "  caml store <models> (--to-binary <out> | --to-text <out> | --info)\n"
      "  caml serve <models> --socket PATH [--port N] [--jobs N] [--max-queue N]\n"
      "            [--max-batch N] [--shed-target-ms N]\n"
      "  caml query <cell.sp> --socket PATH [--port N] [-o <dir>] [--ping] [--stats]\n"
      "            [--deadline-ms N]\n"
      "--jobs N: worker threads (default: one per hardware thread;\n"
      "1 = serial). Outputs are identical for every thread count.\n"
      "characterize journals its progress to <dir>/checkpoint.journal\n"
      "(atomic flush every --checkpoint-every cells, default 16); after a\n"
      "crash, --resume skips the recorded cells and the final directory is\n"
      "byte-identical to an uninterrupted run.\n"
      "hybrid: runs the generation flow of the paper's Fig. 7 over the\n"
      "target library, with the training library as prior knowledge.\n"
      "--routing structural simulates structurally new cells and predicts\n"
      "the rest; --routing active runs the budgeted uncertainty loop\n"
      "(simulate the cells the forest is least sure about, retrain with\n"
      "--trees-per-round extra trees, repeat --rounds times or until\n"
      "--sim-budget is spent / margins converge); --routing hybrid blends\n"
      "a structural-similarity prior into the active score. --sim-budget\n"
      "is modeled SPICE seconds (--budget-unit seconds, default) or a\n"
      "cell count (--budget-unit count); 0 = unlimited. -o saves the\n"
      "final per-group forests — byte-identical for any --jobs value and\n"
      "across kill+resume (--checkpoint DIR journals acquisition rounds;\n"
      "--resume replays them). See docs/ACTIVE_LEARNING.md.\n"
      "store: converts between the text interchange store and the binary\n"
      "mmap section (CAMLF1 models.bin): --to-binary writes the binary\n"
      "store, --to-text converts back (byte-identical round trip), --info\n"
      "prints the header and per-group section facts.\n"
      "serve: loads the trained models once and answers query requests\n"
      "over a Unix-domain socket (--socket) or loopback TCP (--port).\n"
      "Binary stores are memory-mapped (zero parse, zero copy); text\n"
      "stores are parsed. Both answer byte-identically.\n"
      "SIGUSR1 dumps the serve_stats block; SIGHUP reloads the model file\n"
      "(validated off the serving threads, old models kept on failure);\n"
      "SIGINT/SIGTERM shut down\n"
      "gracefully (in-flight requests finish). --max-queue bounds the\n"
      "accepted-connection backlog; beyond it clients get an OVERLOADED\n"
      "reject with a retry-after hint instead of unbounded queueing.\n"
      "--max-batch caps how many decoded PREDICT requests one compute\n"
      "worker coalesces (across connections) into one compute batch\n"
      "(default 32; 1 = per-request compute).\n"
      "--shed-target-ms: latency-aware load shedding — when the queue's\n"
      "recent p99 sojourn exceeds the target, new PREDICTs are rejected\n"
      "OVERLOADED before queueing (default 1000; 0 disables). Requests\n"
      "whose client deadline expires while queued are answered\n"
      "DEADLINE_EXCEEDED without consuming compute.\n"
      "query: sends each cell of <cell.sp> to a running daemon; writes\n"
      "predicted .camodel files to -o (or stdout). --ping just probes;\n"
      "--stats dumps the daemon's unified metrics snapshot (Prometheus\n"
      "text exposition) and exits. --deadline-ms N ships a per-request\n"
      "compute deadline (protocol v2); the daemon sheds requests whose\n"
      "deadline expired in queue instead of computing stale answers.\n"
      "--trace FILE records every instrumented stage as a Chrome-trace\n"
      "JSON (open in chrome://tracing or Perfetto). --profile prints a\n"
      "per-stage wall/CPU/throughput table on exit. Both only observe:\n"
      "outputs are byte-identical with or without them.\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc < 2) usage();
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    const auto count_value = [&]() -> std::size_t {
      const std::string text = value();
      const auto parsed = try_parse_uint64(text);
      if (!parsed) usage(a + " needs a non-negative integer, got '" + text + "'");
      return static_cast<std::size_t>(*parsed);
    };
    const auto real_value = [&]() -> double {
      const std::string text = value();
      char* end = nullptr;
      const double parsed = std::strtod(text.c_str(), &end);
      if (end == nullptr || *end != '\0' || end == text.c_str() || !std::isfinite(parsed) ||
          parsed < 0.0) {
        usage(a + " needs a finite non-negative number, got '" + text + "'");
      }
      return parsed;
    };
    if (a == "-o" || a == "--out") args.out = value();
    else if (a == "-m" || a == "--models") args.models = value();
    else if (a == "--trees") {
      args.trees = count_value();
      if (args.trees == 0) usage("--trees needs a value >= 1");
    }
    else if (a == "--jobs") args.jobs = count_value();
    else if (a == "--inter-shorts") args.inter_shorts = true;
    else if (a == "--socket") args.socket = value();
    else if (a == "--port") {
      const std::size_t port = count_value();
      if (port == 0 || port > 65535) usage("--port needs a value in 1..65535");
      args.port = static_cast<std::uint16_t>(port);
    }
    else if (a == "--max-queue") args.max_queue = count_value();
    else if (a == "--max-batch") {
      args.max_batch = count_value();
      if (args.max_batch == 0) usage("--max-batch needs a value >= 1");
    }
    else if (a == "--shed-target-ms") args.shed_target_ms = count_value();
    else if (a == "--deadline-ms") {
      args.deadline_ms = count_value();
      if (args.deadline_ms > 0xFFFFFFFFull) usage("--deadline-ms is too large");
    }
    else if (a == "--ping") args.ping = true;
    else if (a == "--stats") args.stats = true;
    else if (a == "--to-binary") args.to_binary = value();
    else if (a == "--to-text") args.to_text = value();
    else if (a == "--info") args.info = true;
    else if (a == "--checkpoint-every") args.checkpoint_every = count_value();
    else if (a == "--resume") args.resume = true;
    else if (a == "--routing") args.routing = value();
    else if (a == "--sim-budget") args.sim_budget = real_value();
    else if (a == "--budget-unit") args.budget_unit = value();
    else if (a == "--rounds") args.rounds = count_value();
    else if (a == "--trees-per-round") args.trees_per_round = count_value();
    else if (a == "--per-round") args.per_round = count_value();
    else if (a == "--full-refit") args.full_refit = true;
    else if (a == "--checkpoint") args.checkpoint_dir = value();
    else if (a == "--trace") args.trace_path = value();
    else if (a == "--profile") args.profile = true;
    else if (a.rfind('-', 0) == 0) usage("unknown option " + a);
    else args.positional.push_back(a);
  }
  return args;
}

std::vector<Cell> load_cells(const std::string& path) {
  const std::vector<Cell> cells = SpiceParser().parse_file(path);
  if (cells.empty()) throw Error("no subcircuits found in " + path);
  std::cerr << "loaded " << cells.size() << " cells from " << path << '\n';
  return cells;
}

int cmd_characterize(const Args& args) {
  if (args.positional.size() != 1 || args.out.empty()) {
    usage("characterize needs a netlist and -o <dir>");
  }
  // characterize_library with its checkpoint in -o: each cell's
  // checksummed artifact is published before the journal records it, so
  // --resume after a crash loads the journaled cells back (re-running
  // unreadable ones) and the final directory is byte-identical to an
  // uninterrupted run. Report lines are written in netlist order, so
  // stdout is identical for every --jobs value too.
  Library library;
  library.name = args.positional[0];
  for (Cell& cell : load_cells(args.positional[0])) {
    library.cells.emplace_back().cell = std::move(cell);
  }
  CharacterizeOptions options;
  options.universe.inter_transistor_shorts = args.inter_shorts;
  options.jobs = args.jobs;
  options.checkpoint = {args.out, args.checkpoint_every, args.resume};
  for (const CharacterizedCell& cc : characterize_library(library, options)) {
    const CaModel& model = cc.model;
    std::cout << cc.source.cell.name() << ": " << model.defects.size() << " defects, "
              << model.count_class(DefectClass::kStatic) << " static / "
              << model.count_class(DefectClass::kDynamic) << " dynamic / "
              << model.count_class(DefectClass::kUndetected) << " undetected, "
              << model.equivalence_classes.size() << " equivalence classes\n";
  }
  std::cout << "wrote " << library.cells.size() << " CA models to " << args.out << '\n';
  return 0;
}

int cmd_canonicalize(const Args& args) {
  if (args.positional.size() != 1) usage("canonicalize needs a netlist");
  for (const Cell& cell : load_cells(args.positional[0])) {
    const CanonicalCell canon = canonicalize(cell);
    std::cout << cell.name() << " (" << cell.num_inputs() << " inputs, "
              << cell.num_transistors() << " transistors)\n";
    std::cout << "  structure: " << canon.structure_signature << '\n';
    std::cout << "  reduced  : " << canon.reduced_signature << '\n';
    for (std::size_t ti = 0; ti < cell.num_transistors(); ++ti) {
      std::cout << "  " << cell.transistors()[ti].name << " -> " << canon.canonical_name[ti]
                << " (activity " << canon.activity[ti].to_string() << ")\n";
    }
  }
  return 0;
}

/// Loads a library's cells plus their (ground-truth) CA models — the
/// CharacterizedCell inputs of `train` and of the generation flow.
std::vector<CharacterizedCell> load_characterized(const std::string& netlist,
                                                  const std::string& camodel_dir) {
  std::vector<CharacterizedCell> out;
  for (Cell& cell : load_cells(netlist)) {
    const std::string path = camodel_dir + "/" + cell.name() + ".camodel";
    if (!std::filesystem::exists(path)) {
      std::cerr << "skipping " << cell.name() << ": no model at " << path << '\n';
      continue;
    }
    LibraryCell source;
    source.cell = std::move(cell);
    out.push_back(read_characterized_cell(source, Technology{}, camodel_dir));
  }
  if (out.empty()) throw Error("no cells with CA models under " + camodel_dir);
  return out;
}

int cmd_train(const Args& args) {
  if (args.positional.size() != 2 || args.out.empty()) {
    usage("train needs a netlist, a camodel directory and -o <file>");
  }
  const std::vector<CharacterizedCell> training =
      load_characterized(args.positional[0], args.positional[1]);
  std::cerr << "training on " << training.size() << " cells\n";
  Log::set_level(LogLevel::kInfo);
  MlOptions options;
  options.forest.num_trees = args.trees;
  options.forest.jobs = args.jobs;
  const GroupModelStore store = GroupModelStore::train(training, options);
  store.save_file(args.out);
  std::cout << "wrote " << store.num_groups() << " group models to " << args.out << '\n';
  return 0;
}

int cmd_predict(const Args& args) {
  if (args.positional.size() != 1 || args.models.empty() || args.out.empty()) {
    usage("predict needs a netlist, -m <models> and -o <dir>");
  }
  // Binary stores mmap (zero parse), text stores load — same interface,
  // byte-identical predictions either way.
  const std::shared_ptr<const ModelStore> store_ptr = store::open_model_store(args.models);
  const ModelStore& store = *store_ptr;
  std::cerr << "loaded " << store.num_groups() << " group models\n";
  std::filesystem::create_directories(args.out);

  // Inference (matrix construction + batched classification) runs on the
  // worker pool; the store is shared read-only (predict is const and
  // thread-safe). Files and report lines are written serially in netlist
  // order afterwards, so the output is bit-identical for every --jobs
  // value — the same contract characterize has.
  struct Outcome {
    bool ok = false;
    std::string camodel_text;  // serialized on the worker, written serially
    std::string report_line;
  };
  const std::vector<Cell> cells = load_cells(args.positional[0]);
  const std::vector<Outcome> outcomes =
      parallel_map(cells, args.jobs, [&](const Cell& cell) {
        Outcome out;
        std::ostringstream line;
        try {
          const CanonicalCell canon = canonicalize(cell);
          const CaModel predicted =
              store.predict(cell, canon, PolicyProfile{}.policy_for(cell.num_inputs()),
                            SimConfig{});
          out.camodel_text = ca_model_to_string(predicted, cell);
          line << cell.name() << ": predicted (" << predicted.defects.size()
               << " defects, " << predicted.count_class(DefectClass::kStatic)
               << " static / " << predicted.count_class(DefectClass::kDynamic)
               << " dynamic)";
          out.ok = true;
        } catch (const Error& e) {
          line << cell.name() << ": " << e.what();
        }
        out.report_line = line.str();
        return out;
      });

  std::size_t predicted_cells = 0, skipped = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Outcome& out = outcomes[i];
    if (out.ok) {
      // Raw .camodel text (byte-compatible with `caml query`), but
      // published atomically so a crash never leaves a torn file.
      io::write_file_atomic(args.out + "/" + cells[i].name() + ".camodel",
                            out.camodel_text);
      ++predicted_cells;
    } else {
      ++skipped;
    }
    std::cout << out.report_line << '\n';
  }
  std::cout << predicted_cells << " cells predicted, " << skipped
            << " need conventional generation\n";
  return 0;
}

/// Loads any store file as an owning GroupModelStore (materializing a
/// binary store through the validated reader) — the conversion path of
/// `caml store`.
GroupModelStore load_owning_store(const std::string& path) {
  if (store::is_binary_store_file(path)) {
    return store::MappedModelStore::open(path).materialize();
  }
  return GroupModelStore::load_file(path);
}

void print_matrix_options(const MatrixOptions& m) {
  std::cout << "  matrix: activity=" << m.include_activity
            << " response=" << m.include_response
            << " truthtable=" << m.include_truth_table
            << " kind=" << m.include_defect_kind << '\n';
}

int cmd_store(const Args& args) {
  if (args.positional.size() != 1) usage("store needs a model-store file");
  const std::string path = args.positional[0];
  const int modes =
      (args.to_binary.empty() ? 0 : 1) + (args.to_text.empty() ? 0 : 1) + (args.info ? 1 : 0);
  if (modes != 1) {
    usage("store needs exactly one of --to-binary <out>, --to-text <out>, --info");
  }
  if (!args.to_binary.empty()) {
    const GroupModelStore owned = load_owning_store(path);
    store::write_binary_store_file(args.to_binary, owned);
    std::cout << "wrote binary store " << args.to_binary << " (" << owned.num_groups()
              << " groups)\n";
    return 0;
  }
  if (!args.to_text.empty()) {
    const GroupModelStore owned = load_owning_store(path);
    owned.save_file(args.to_text);
    std::cout << "wrote text store " << args.to_text << " (" << owned.num_groups()
              << " groups)\n";
    return 0;
  }
  if (store::is_binary_store_file(path)) {
    const store::MappedModelStore mapped = store::MappedModelStore::open(path);
    std::cout << path << ": binary model store (CAMLF1 " << store::kBinaryStoreKind << ")\n"
              << "  groups: " << mapped.num_groups() << '\n'
              << "  bytes mapped: " << mapped.bytes_mapped() << '\n';
    print_matrix_options(mapped.matrix_options());
    for (const store::MappedModelStore::GroupInfo& g : mapped.group_infos()) {
      std::cout << "  group (" << g.key.num_inputs << " in, " << g.key.num_transistors
                << " T): " << g.num_trees << " trees, " << g.num_features
                << " features, section " << g.forest_size << " bytes at payload offset "
                << g.forest_offset << '\n';
    }
  } else {
    const GroupModelStore owned = GroupModelStore::load_file(path);
    std::cout << path << ": text model store\n  groups: " << owned.num_groups() << '\n';
    print_matrix_options(owned.matrix_options());
    for (const GroupKey& key : owned.group_keys()) {
      const RandomForest* forest = owned.forest_for(key);
      std::cout << "  group (" << key.num_inputs << " in, " << key.num_transistors
                << " T): " << forest->trees().size() << " trees, "
                << forest->num_features() << " features\n";
    }
  }
  return 0;
}

/// serve-side store observability (recorded at startup and on every
/// SIGHUP reload): how long the load/validate took and how many bytes
/// the serving store keeps memory-mapped (0 for a text store, which is
/// parsed into owned memory).
void record_store_metrics(const ModelStore& model_store, std::int64_t load_us) {
  obs::Registry::global()
      .histogram("caml_store_reload_duration_us",
                 "Model store load/validate wall time per (re)load, microseconds")
      .record(static_cast<std::uint64_t>(load_us));
  const auto* mapped = dynamic_cast<const store::MappedModelStore*>(&model_store);
  obs::Registry::global()
      .gauge("caml_store_bytes_mapped",
             "Bytes of the serving model store currently memory-mapped")
      .set(mapped == nullptr ? 0 : static_cast<std::int64_t>(mapped->bytes_mapped()));
}

/// open_model_store + metrics, shared by serve startup and SIGHUP.
std::shared_ptr<const ModelStore> open_store_timed(const std::string& path) {
  const auto t0 = std::chrono::steady_clock::now();
  std::shared_ptr<const ModelStore> opened = store::open_model_store(path);
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  record_store_metrics(*opened, us);
  return opened;
}

// Signal handlers must stay async-signal-safe: the handler only writes
// the signal number to this self-pipe; the main thread polls the read
// end and does the actual work (stats dump / graceful stop).
int g_signal_pipe_wr = -1;

void signal_to_pipe(int sig) {
  const unsigned char byte = static_cast<unsigned char>(sig);
  [[maybe_unused]] const ssize_t rc = ::write(g_signal_pipe_wr, &byte, 1);
}

int cmd_serve(const Args& args) {
  if (args.positional.size() != 1 || (args.socket.empty() && args.port == 0)) {
    usage("serve needs <models.caml> and --socket PATH (or --port N)");
  }
  const std::string store_path = args.positional[0];
  Log::set_level(LogLevel::kInfo);
  std::shared_ptr<const ModelStore> store;
  try {
    store = open_store_timed(store_path);
  } catch (const Error& e) {
    // Structured startup rejection: a store that fails checksum, bounds
    // or parse validation must never start serving. Exit code 3
    // distinguishes "bad model store" from generic failures for
    // supervisors.
    std::cerr << "error: refusing to serve " << store_path << ": " << e.what() << '\n';
    return 3;
  }
  std::cerr << "loaded " << store->num_groups() << " group models from " << store_path
            << '\n';

  serve::ServerOptions options;
  options.socket_path = args.socket;
  options.tcp_port = args.port;
  options.jobs = args.jobs;
  options.max_queue = args.max_queue;
  options.max_batch = args.max_batch;
  options.sojourn_target_ms = static_cast<int>(args.shed_target_ms);
  // Idle keep-alive connections live 10 s, not the library's 2 s. Closing
  // one races a client about to send on it: those requests fail with the
  // connection. A pipelined client's spare connections sit idle for
  // seconds between bursts, so a short timeout keeps hitting that race.
  options.idle_timeout_ms = 10000;
  serve::Server server(std::move(store), options);
  // Store-fault recovery: when a serving mmap snapshot faults (backing
  // file truncated/rewritten in place), the server re-opens from disk
  // through the same validated path SIGHUP uses; on failure it falls
  // back to the last-good snapshot. Either way the daemon stays up.
  server.set_store_refresh([store_path] { return open_store_timed(store_path); });

  Pipe signal_pipe = make_pipe();
  g_signal_pipe_wr = signal_pipe.wr.get();
  struct sigaction sa{};
  sa.sa_handler = signal_to_pipe;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGUSR1, &sa, nullptr);
  sigaction(SIGHUP, &sa, nullptr);

  server.start();
  if (server.port() != 0) {
    std::cout << "listening on 127.0.0.1:" << server.port() << std::endl;
  }
  for (;;) {
    if (!wait_readable(signal_pipe.rd.get(), -1)) continue;
    unsigned char sig = 0;
    if (::read(signal_pipe.rd.get(), &sig, 1) != 1) continue;
    if (sig == SIGUSR1) {
      // Per-server view first, then the unified process-wide registry
      // (same text a STATS request or `caml query --stats` returns).
      std::cerr << serve::format_stats(server.stats());
      std::cerr << obs::Registry::global().snapshot().to_text();
      continue;
    }
    if (sig == SIGHUP) {
      // Hot reload: open + validate on this thread (workers keep serving
      // the current store), swap in only on success. A binary store
      // re-maps; the old mapping stays alive until the last in-flight
      // batch drops its snapshot.
      try {
        server.reload(open_store_timed(store_path));
      } catch (const Error& e) {
        log_warn() << "reload of " << store_path
                   << " failed; keeping the current models: " << e.what();
      }
      continue;
    }
    break;  // SIGINT / SIGTERM
  }
  std::cerr << "shutting down (draining in-flight requests)\n";
  server.stop();
  std::cerr << serve::format_stats(server.stats());
  return 0;
}

int cmd_query(const Args& args) {
  if (args.socket.empty() && args.port == 0) {
    usage("query needs --socket PATH (or --port N)");
  }
  serve::ClientOptions copts;
  copts.socket_path = args.socket;
  copts.port = args.port;
  copts.deadline_ms = static_cast<std::uint32_t>(args.deadline_ms);
  serve::Client client(copts);
  if (args.ping) {
    if (!args.positional.empty()) usage("--ping takes no netlist");
    client.ping();
    std::cout << "pong\n";
    return 0;
  }
  if (args.stats) {
    if (!args.positional.empty()) usage("--stats takes no netlist");
    std::cout << client.stats();
    return 0;
  }
  if (args.positional.size() != 1) usage("query needs a netlist and --socket/--port");

  std::ifstream is(args.positional[0]);
  if (!is) throw Error("cannot read " + args.positional[0]);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string file_text = buffer.str();
  const std::vector<Cell> cells = SpiceParser().parse_string(file_text);
  if (cells.empty()) throw Error("no subcircuits found in " + args.positional[0]);
  if (!args.out.empty()) std::filesystem::create_directories(args.out);

  const SpiceWriter writer;
  std::size_t predicted = 0, failed = 0;
  for (const Cell& cell : cells) {
    // A single-cell file is forwarded verbatim (byte-transparent); a
    // multi-cell library is split into one request per cell.
    const std::string request = cells.size() == 1 ? file_text : writer.to_string(cell);
    try {
      const std::string camodel = client.predict_cell(request);
      if (args.out.empty()) {
        std::cout << camodel;
      } else {
        io::write_file_atomic(args.out + "/" + cell.name() + ".camodel", camodel);
        std::cout << cell.name() << ": predicted\n";
      }
      ++predicted;
    } catch (const serve::RemoteError& e) {
      std::cout << cell.name() << ": " << e.what() << '\n';
      ++failed;
    }
  }
  if (!args.out.empty() || failed > 0) {
    std::cout << predicted << " cells predicted, " << failed << " failed\n";
  }
  return failed == 0 ? 0 : 1;
}

/// One deterministic per-cell routing line. Everything on stdout is a
/// pure function of the inputs (no wall-clock), so smoke scripts can
/// byte-compare runs across --jobs values and kill+resume.
void print_outcome_line(const CharacterizedCell& cell, const HybridCellOutcome& o,
                        bool acquired) {
  std::cout << cell.model.cell_name << " [" << structure_match_name(o.match) << "] -> "
            << (o.routed_to_ml ? "ML" : (acquired ? "acquired" : "simulation"));
  if (o.routed_to_ml) {
    std::cout << ", accuracy " << format_fixed(100.0 * o.accuracy, 2) << "%";
  }
  if (o.degraded) std::cout << " (degraded)";
  std::cout << '\n';
}

int cmd_hybrid(const Args& args, RoutingPolicy default_routing) {
  if (args.positional.size() != 4) {
    usage(args.command + " needs <train.sp> <train-camodels> <target.sp> <target-camodels>");
  }
  RoutingPolicy routing = default_routing;
  if (!args.routing.empty()) {
    const std::optional<RoutingPolicy> parsed = parse_routing_policy(args.routing);
    if (!parsed) usage("unknown routing policy " + args.routing);
    routing = *parsed;
  }
  const std::optional<active::BudgetUnit> unit = active::parse_budget_unit(args.budget_unit);
  if (!unit) usage("unknown budget unit " + args.budget_unit + " (seconds | count)");
  if (args.resume && args.checkpoint_dir.empty()) usage("--resume needs --checkpoint DIR");

  const std::vector<CharacterizedCell> training =
      load_characterized(args.positional[0], args.positional[1]);
  const std::vector<CharacterizedCell> targets =
      load_characterized(args.positional[2], args.positional[3]);
  std::cerr << "hybrid flow: " << training.size() << " training cells, " << targets.size()
            << " targets, routing " << routing_policy_name(routing) << '\n';

  active::ActiveOptions options;
  options.base.ml.forest.num_trees = args.trees;
  options.base.ml.forest.jobs = args.jobs;
  options.base.routing = routing;
  options.base.checkpoint.dir = args.checkpoint_dir;
  options.base.checkpoint.every = args.checkpoint_every;
  options.base.checkpoint.resume = args.resume;
  if (!args.checkpoint_dir.empty()) std::filesystem::create_directories(args.checkpoint_dir);
  options.sim_budget = args.sim_budget;
  options.budget_unit = *unit;
  options.max_rounds = args.rounds;
  options.acquisitions_per_round = args.per_round;
  options.trees_per_round = args.trees_per_round;
  options.full_refit = args.full_refit;
  options.jobs = args.jobs;

  const active::ActiveReport report = active::run_active_flow(training, targets, options);
  for (const HybridCellOutcome& o : report.hybrid.outcomes) {
    print_outcome_line(targets[o.cell_index], o, report.acquired_mask[o.cell_index] != 0);
  }
  for (const active::RoundStats& r : report.rounds) {
    std::cout << "round " << r.round << ": acquired=" << r.acquired
              << " spent=" << format_fixed(r.spent_after, 3)
              << " min-conf=" << format_fixed(r.min_confidence, 4)
              << " mean-conf=" << format_fixed(r.mean_confidence, 4) << '\n';
  }
  double acc_sum = 0.0;
  std::size_t predicted = 0;
  for (const HybridCellOutcome& o : report.hybrid.outcomes) {
    if (!o.routed_to_ml) continue;
    ++predicted;
    acc_sum += o.accuracy;
  }
  std::cout << "routing=" << routing_policy_name(report.policy)
            << " targets=" << report.hybrid.outcomes.size() << " acquired=" << report.acquired
            << " predicted=" << predicted << " forced=" << report.forced_conventional
            << " degraded=" << report.hybrid.count_degraded()
            << " budget=" << format_fixed(report.budget, 3)
            << " spent=" << format_fixed(report.spent, 3)
            << " unit=" << active::budget_unit_name(*unit) << " mean-ml-accuracy="
            << format_fixed(predicted == 0 ? 0.0 : acc_sum / static_cast<double>(predicted), 4)
            << " accuracy98=" << format_fixed(report.hybrid.ml_accuracy_above(0.98), 4)
            << '\n';
  // Wall-clock-derived accounting is inherently non-reproducible, so it
  // goes to stderr only.
  std::cerr << "modeled conventional-only: "
            << format_fixed(report.hybrid.conventional_only_seconds(), 1) << " s, hybrid: "
            << format_fixed(report.hybrid.hybrid_seconds(), 1) << " s, overall reduction "
            << format_fixed(100.0 * report.hybrid.overall_reduction(), 2) << "%\n";
  if (!args.out.empty()) {
    report.models.save_file(args.out);
    std::cerr << "wrote " << report.models.num_groups() << " group models to " << args.out
              << '\n';
  }
  return 0;
}

int cmd_patterns(const Args& args) {
  if (args.positional.size() != 2) usage("patterns needs a netlist and a camodel directory");
  for (const Cell& cell : load_cells(args.positional[0])) {
    const std::string path = args.positional[1] + "/" + cell.name() + ".camodel";
    if (!std::filesystem::exists(path)) {
      std::cerr << "skipping " << cell.name() << ": no model at " << path << '\n';
      continue;
    }
    const CaModel model = read_ca_model_file(path, cell);  // framed or legacy raw
    const PatternSelection sel = select_patterns(model);
    std::cout << cell.name() << ": " << sel.stimuli.size() << " patterns cover "
              << model.defects.size() - sel.undetected.size() << "/" << model.defects.size()
              << " defects (" << sel.undetected.size() << " undetectable)\n";
    for (std::size_t s : sel.stimuli) {
      std::cout << "  " << model.stimuli[s].to_string()
                << (model.stimuli[s].is_static() ? "  (static)" : "  (two-pattern)") << '\n';
    }
  }
  return 0;
}

}  // namespace

namespace {

int dispatch(const Args& args) {
  if (args.command == "characterize") return cmd_characterize(args);
  if (args.command == "canonicalize") return cmd_canonicalize(args);
  if (args.command == "train") return cmd_train(args);
  if (args.command == "predict") return cmd_predict(args);
  if (args.command == "patterns") return cmd_patterns(args);
  if (args.command == "hybrid") return cmd_hybrid(args, RoutingPolicy::kStructural);
  if (args.command == "active") return cmd_hybrid(args, RoutingPolicy::kActive);
  if (args.command == "store") return cmd_store(args);
  if (args.command == "serve") return cmd_serve(args);
  if (args.command == "query") return cmd_query(args);
  usage("unknown command " + args.command);
}

/// Flushes observability artifacts; runs on every exit path (success,
/// caml::Error, usage() would have exited before collection started).
void finish_obs(const Args& args) {
  if (!args.trace_path.empty()) {
    try {
      obs::trace_stop_write(args.trace_path);
      std::cerr << "wrote trace to " << args.trace_path;
      if (const std::uint64_t dropped = obs::trace_dropped_events(); dropped > 0) {
        std::cerr << " (" << dropped << " events dropped past the buffer cap)";
      }
      std::cerr << '\n';
    } catch (const caml::Error& e) {
      std::cerr << "error: trace write failed: " << e.what() << '\n';
    }
  }
  if (args.profile) std::cerr << obs::profile_summary();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (!args.trace_path.empty()) obs::trace_start();
  if (args.profile) obs::profile_start();
  try {
    const int rc = dispatch(args);
    finish_obs(args);
    return rc;
  } catch (const caml::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    finish_obs(args);
    return 1;
  }
}
