// Workload `serve_mixed`: the real `caml serve` daemon on a binary
// model store trained on 28SOI, driven over its Unix socket by a
// single-threaded load generator with requests for every C40 and C28
// cell (NO_GROUP is the correct answer for cells whose group has no
// forest). An open loop at a fixed offered rate (seeded Poisson
// arrivals, latency timed from each request's due time) is followed by
// a closed-loop saturation phase.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "camatrix/canonical.hpp"
#include "camodel/model_io.hpp"
#include "flow/characterize.hpp"
#include "flow/model_store.hpp"
#include "netlist/spice_parser.hpp"
#include "netlist/spice_writer.hpp"
#include "report.hpp"
#include "serve/batch.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "store/binary_store.hpp"
#include "util/net.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace caml;

/// Daemon compute workers. With the daemon's reactor thread and the
/// load generator's one thread the serve side stays within 4 CPUs.
constexpr std::size_t kDaemonWorkers = 2;
/// Load-generator connections (the open loop sends each request on the
/// one with the fewest in flight; the closed loop keeps kWindow requests
/// in flight on each).
constexpr std::size_t kConnections = 2;
constexpr std::size_t kWindow = 16;
/// Passes through the pool the closed loop sends.
constexpr std::size_t kClosedPasses = 3;
/// How long the open loop waits for stragglers after the last arrival.
constexpr double kDrainSeconds = 20.0;
/// Latency recorded for a refused, shed, failed, timed-out or wrong
/// answer: beyond any limit.
constexpr double kBeyondLimitMs = 1e12;
/// Share of --seconds each in-process replay of the traced run may use.
constexpr double kReplayShare = 0.25;
constexpr int kStoreOpenRepeats = 5;

struct PoolCell {
  std::string netlist;
  std::string expected;  ///< `.camodel` text, or empty when no_group
  bool no_group = false;
};

// ---------------------------------------------------------------- daemon

/// The `caml serve` child process. Stopped (SIGTERM, then SIGKILL after
/// a grace period) and reaped on destruction.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& store, const std::string& socket,
         const std::string& log) {
    pid_ = ::fork();
    if (pid_ < 0) throw Error("fork failed");
    if (pid_ == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      const std::string jobs = std::to_string(kDaemonWorkers);
      ::execl(binary.c_str(), binary.c_str(), "serve", store.c_str(), "--socket", socket.c_str(),
              "--jobs", jobs.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  bool running() {
    if (pid_ <= 0) return false;
    rusage usage{};
    int status = 0;
    if (::wait4(pid_, &status, WNOHANG, &usage) == pid_) {
      pid_ = -1;
      peak_rss_kb_ = usage.ru_maxrss;
      return false;
    }
    return true;
  }

  /// Stops the daemon and returns its peak RSS in MB.
  double stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      for (int i = 0; i < 1000 && running(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        rusage usage{};
        int status = 0;
        ::wait4(pid_, &status, 0, &usage);
        peak_rss_kb_ = usage.ru_maxrss;
        pid_ = -1;
      }
    }
    return static_cast<double>(peak_rss_kb_) / 1024.0;
  }

 private:
  pid_t pid_ = -1;
  long peak_rss_kb_ = 0;
};

void wait_for_ping(Daemon& daemon, const std::string& socket) {
  serve::ClientOptions copts;
  copts.socket_path = socket;
  copts.connect_timeout_ms = 200;
  copts.timeout_ms = 2000;
  copts.retries = 0;
  const Clock::time_point t0 = Clock::now();
  while (seconds_since(t0) < 60.0) {
    if (!daemon.running()) throw Error("caml serve exited during start-up");
    try {
      serve::Client client(copts);
      client.ping();
      return;
    } catch (const Error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  throw Error("caml serve did not answer a ping within 60 s");
}

// ----------------------------------------------------------------- stats

/// The daemon's metrics exposition, parsed: scalar series and the
/// cumulative buckets of each histogram.
struct Stats {
  std::map<std::string, double> scalars;
  std::map<std::string, std::vector<std::pair<double, double>>> buckets;  ///< (le, cumulative)

  static Stats parse(const std::string& text) {
    Stats s;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t space = line.rfind(' ');
      if (space == std::string::npos) continue;
      const std::string series = line.substr(0, space);
      const double value = std::stod(line.substr(space + 1));
      const std::size_t brace = series.find("_bucket{le=\"");
      if (brace == std::string::npos) {
        s.scalars[series] = value;
        continue;
      }
      const std::string le = series.substr(brace + 12, series.size() - brace - 14);
      if (le == "+Inf") continue;
      s.buckets[series.substr(0, brace)].emplace_back(std::stod(le), value);
    }
    return s;
  }

  double scalar(const std::string& name) const {
    const auto it = scalars.find(name);
    return it == scalars.end() ? 0.0 : it->second;
  }
};

/// Cumulative count of histogram `name` at bucket bound `le`.
double cumulative_at(const Stats& s, const std::string& name, double le) {
  double c = 0.0;
  if (const auto it = s.buckets.find(name); it != s.buckets.end()) {
    for (const auto& [bound, count] : it->second) {
      if (bound <= le) c = count;  // buckets are listed in ascending order
    }
  }
  return c;
}

/// Upper bucket bound below which `q` of the histogram's samples that
/// arrived between two snapshots fall.
double histogram_quantile(const Stats& before, const Stats& after, const std::string& name,
                          double q) {
  const double total = after.scalar(name + "_count") - before.scalar(name + "_count");
  const auto it = after.buckets.find(name);
  if (total <= 0.0 || it == after.buckets.end()) return 0.0;
  for (const auto& [le, count] : it->second) {
    if (count - cumulative_at(before, name, le) >= q * total) return le;
  }
  return it->second.back().first;
}

// ------------------------------------------------------------ load gen

struct Outcome {
  bool ok = false;
  double latency_ms = kBeyondLimitMs;
};

/// Single-threaded non-blocking load generator over a few connections.
/// A connection the daemon drops fails its requests in flight (transport
/// errors) and is replaced by a fresh one.
class LoadGen {
 public:
  LoadGen(const std::string& socket, const std::vector<PoolCell>& pool)
      : socket_(socket), pool_(pool) {
    for (std::size_t i = 0; i < kConnections; ++i) conns_.push_back(open_conn());
  }

  /// Sends request `cell` on connection `conn`; `tag` is returned with
  /// its answer.
  void send(std::size_t conn, std::size_t cell, std::size_t tag) {
    serve::Frame frame;
    frame.type = serve::MsgType::kPredictCell;
    frame.request_id = next_id_++;
    frame.payload = pool_[cell].netlist;
    conns_[conn].out += serve::encode_frame(frame);
    ++conns_[conn].in_flight;
    pending_[frame.request_id] = Pending{cell, tag, conn};
  }

  std::size_t in_flight(std::size_t conn) const { return conns_[conn].in_flight; }
  /// The connection with the fewest requests in flight (lowest index on ties).
  std::size_t least_loaded() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < conns_.size(); ++i) {
      if (conns_[i].in_flight < conns_[best].in_flight) best = i;
    }
    return best;
  }
  std::size_t outstanding() const { return pending_.size(); }

  /// Flushes queued bytes, waits up to `timeout_s` for the sockets and
  /// reports each answered request as (tag, correct) to `on_answer`.
  template <class F>
  void pump(double timeout_s, F&& on_answer) {
    flush(on_answer);
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) {
      const bool pending_out = c.out.size() > c.out_off;
      fds.push_back({c.fd.get(), static_cast<short>(POLLIN | (pending_out ? POLLOUT : 0)), 0});
    }
    timespec ts{};
    timeout_s = std::max(timeout_s, 0.0);
    ts.tv_sec = static_cast<time_t>(timeout_s);
    ts.tv_nsec = static_cast<long>((timeout_s - static_cast<double>(ts.tv_sec)) * 1e9);
    const int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (rc < 0) {
      if (errno == EINTR) return;
      throw Error("load generator poll failed");
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) read_conn(i, on_answer);
    }
    flush(on_answer);
  }

 private:
  struct Conn {
    Fd fd;
    std::string out;
    std::size_t out_off = 0;
    serve::FrameAssembler in;
    std::size_t in_flight = 0;
  };
  struct Pending {
    std::size_t cell = 0;
    std::size_t tag = 0;
    std::size_t conn = 0;
  };

  Conn open_conn() const {
    Conn c;
    c.fd = connect_unix(socket_, 5000);
    set_nonblocking(c.fd.get(), true, "load generator connection");
    return c;
  }

  template <class F>
  void reset_conn(std::size_t i, F& on_answer) {
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.conn != i) {
        ++it;
        continue;
      }
      const std::size_t tag = it->second.tag;
      it = pending_.erase(it);
      on_answer(tag, false);
    }
    conns_[i] = open_conn();
  }

  template <class F>
  void flush(F& on_answer) {
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      while (c.out_off < c.out.size()) {
        const IoResult r =
            write_some(c.fd.get(), c.out.data() + c.out_off, c.out.size() - c.out_off);
        if (r.closed) {
          reset_conn(i, on_answer);
          break;
        }
        if (r.would_block) break;
        c.out_off += r.bytes;
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
  }

  template <class F>
  void read_conn(std::size_t i, F& on_answer) {
    Conn& c = conns_[i];
    char buf[65536];
    for (;;) {
      const IoResult r = read_some(c.fd.get(), buf, sizeof buf);
      if (r.closed) {
        reset_conn(i, on_answer);
        return;
      }
      if (r.would_block) break;
      c.in.feed(buf, r.bytes);
      while (std::optional<serve::Frame> frame = c.in.next_frame()) {
        const auto it = pending_.find(frame->request_id);
        if (it == pending_.end()) throw Error("answer to an unknown request id");
        const Pending p = it->second;
        pending_.erase(it);
        --conns_[p.conn].in_flight;
        on_answer(p.tag, is_correct(*frame, pool_[p.cell]));
      }
    }
  }

  static bool is_correct(const serve::Frame& frame, const PoolCell& cell) {
    if (frame.type == serve::MsgType::kPredictOk) {
      return !cell.no_group && frame.payload == cell.expected;
    }
    if (frame.type != serve::MsgType::kError) return false;
    return cell.no_group && serve::decode_error(frame.payload).code == serve::ErrorCode::kNoGroup;
  }

  std::string socket_;
  const std::vector<PoolCell>& pool_;
  std::vector<Conn> conns_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_id_ = 1;
};

/// Draws pool cells from a reshuffled deck, so every cell appears once
/// per pass through the pool.
class Deck {
 public:
  Deck(std::size_t n, SeededRng& rng) : n_(n), rng_(rng) {}
  std::size_t size() const { return n_; }
  std::size_t next() {
    if (pos_ == order_.size()) {
      order_.resize(n_);
      for (std::size_t i = 0; i < n_; ++i) order_[i] = i;
      shuffle(order_, rng_);
      pos_ = 0;
    }
    return order_[pos_++];
  }

 private:
  std::size_t n_;
  SeededRng& rng_;
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
};

struct OpenLoop {
  std::vector<std::size_t> cells;  ///< request stream, in arrival order
  std::vector<Outcome> outcomes;
  std::vector<double> lag_ms;
};

/// Sends whole passes through the pool (as many as last about `seconds`
/// at `rate`, at least one), so every seed offers the same request mix
/// and only the order and the arrival times change.
OpenLoop run_open_loop(LoadGen& gen, Deck& deck, SeededRng& rng, double rate, double seconds) {
  OpenLoop run;
  const double pool = static_cast<double>(deck.size());
  const double passes = std::max(1.0, std::round(rate * seconds / pool));
  const std::size_t n = static_cast<std::size_t>(passes) * deck.size();
  std::vector<double> due;  // seconds after start
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    due.push_back(t);
    run.cells.push_back(deck.next());
  }
  run.outcomes.resize(n);
  run.lag_ms.resize(n);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto on_answer = [&](std::size_t tag, bool ok) {
    run.outcomes[tag].ok = ok;
    run.outcomes[tag].latency_ms = (seconds_since(start) - due[tag]) * 1e3;
    if (!ok) run.outcomes[tag].latency_ms = kBeyondLimitMs;
  };
  std::size_t next = 0;
  for (;;) {
    const double now = seconds_since(start);
    while (next < n && due[next] <= now) {
      gen.send(gen.least_loaded(), run.cells[next], next);
      run.lag_ms[next] = (now - due[next]) * 1e3;
      ++next;
    }
    if (next == n && gen.outstanding() == 0) break;
    if (now > due.back() + kDrainSeconds) break;  // the rest stay failed (timeout)
    const double wait = next < n ? due[next] - now : 0.05;
    gen.pump(wait, on_answer);
  }
  return run;
}

struct ClosedLoop {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double rps = 0.0;
};

/// Sends `requests` requests (whole passes through the pool) keeping
/// kWindow in flight on every connection; the rate is correct answers
/// per second of the whole phase.
ClosedLoop run_closed_loop(LoadGen& gen, Deck& deck, std::size_t requests) {
  ClosedLoop run;
  std::uint64_t correct = 0;
  const auto on_answer = [&](std::size_t, bool ok) { ++(ok ? correct : run.failed); };
  const Clock::time_point start = Clock::now();
  while (run.attempted < requests || gen.outstanding() > 0) {
    for (std::size_t c = 0; c < kConnections; ++c) {
      while (run.attempted < requests && gen.in_flight(c) < kWindow) {
        gen.send(c, deck.next(), 0);
        ++run.attempted;
      }
    }
    if (seconds_since(start) > kDrainSeconds * 3) break;  // the rest stay failed (timeout)
    gen.pump(0.05, on_answer);
  }
  run.failed += gen.outstanding();
  run.rps = static_cast<double>(correct) / seconds_since(start);
  return run;
}

// ---------------------------------------------------------- set-up

std::vector<PoolCell> build_pool(const BenchmarkSuite& suite, const GroupModelStore& store,
                                 std::size_t jobs) {
  std::vector<const LibraryCell*> cells;
  for (const Library* lib : {&suite.c40, &suite.c28}) {
    for (const LibraryCell& cell : lib->cells) cells.push_back(&cell);
  }
  const PolicyProfile policy;
  const SpiceWriter writer;
  return parallel_map(cells, jobs, [&](const LibraryCell* source) {
    PoolCell out;
    out.netlist = writer.to_string(source->cell);
    const std::vector<Cell> parsed = SpiceParser().parse_string(out.netlist);
    const Cell& cell = parsed.at(0);
    out.no_group = !store.has_group(GroupKey{cell.num_inputs(), cell.num_transistors()});
    if (!out.no_group) {
      const CaModel model = store.predict(cell, canonicalize(cell),
                                          policy.policy_for(cell.num_inputs()), SimConfig{});
      out.expected = ca_model_to_string(model, cell);
    }
    return out;
  });
}

// ---------------------------------------------------------- replay

struct Replay {
  std::size_t requests = 0;
  std::uint64_t wrong = 0;
  double wall_s = 0.0;
  std::vector<double> compute_us;
};

/// Untraced replay: answer_predict_batch per request, as a daemon
/// worker answers a batch of one.
Replay replay_untraced(const ModelStore& store, const std::vector<PoolCell>& pool,
                       const std::vector<std::size_t>& stream, double budget_s) {
  Replay r;
  const PolicyProfile policy;
  const Clock::time_point t0 = Clock::now();
  for (const std::size_t cell : stream) {
    if (seconds_since(t0) >= budget_s) break;
    serve::PredictJob job;
    job.request_id = r.requests + 1;
    job.netlist = pool[cell].netlist;
    std::vector<serve::PredictJob> jobs;
    jobs.push_back(std::move(job));
    const Clock::time_point c0 = Clock::now();
    const std::vector<serve::PredictOutcome> out =
        serve::answer_predict_batch(store, policy, std::move(jobs));
    r.compute_us.push_back(seconds_since(c0) * 1e6);
    const bool ok = pool[cell].no_group
                        ? out[0].kind == serve::PredictOutcome::Kind::kNoGroup
                        : out[0].kind == serve::PredictOutcome::Kind::kOk &&
                              out[0].response.payload == pool[cell].expected;
    r.wrong += ok ? 0 : 1;
    ++r.requests;
  }
  r.wall_s = seconds_since(t0);
  return r;
}

/// Per-request microseconds of each serve stage (a stage that did not
/// run for a request, e.g. prepare for a NO_GROUP cell, adds no entry).
struct StageTimes {
  std::vector<double> codec, parse, canonicalize, prepare, classify, serialize;
};

/// Traced replay of the first `n` requests: the serve path split into
/// its public stage calls, each in a span and timed per request.
Replay replay_traced(const store::MappedModelStore& store, const std::vector<PoolCell>& pool,
                     const std::vector<std::size_t>& stream, std::size_t n, Ledger& ledger,
                     StageTimes& stages) {
  Replay r;
  const PolicyProfile policy;
  const Clock::time_point t0 = Clock::now();
  // Runs f in a span and adds its duration to *us.
  const auto stage = [&](const char* layer, double* us, auto&& f) {
    const Clock::time_point s0 = Clock::now();
    auto out = in_span(ledger, layer, f);
    if (us != nullptr) *us += seconds_since(s0) * 1e6;
    return out;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const PoolCell& item = pool[stream[i]];
    double codec = 0.0, parse = 0.0;
    const Ledger::Scope request = ledger.span("serve.request");
    serve::Frame frame;
    frame.type = serve::MsgType::kPredictCell;
    frame.request_id = i + 1;
    frame.payload = item.netlist;
    const serve::Frame decoded = stage("serve.codec", &codec, [&] {
      return serve::decode_frame(serve::encode_frame(frame));
    });
    const std::vector<Cell> cells = stage("netlist.parse", &parse, [&] {
      return SpiceParser().parse_string(decoded.payload);
    });
    const Cell& cell = cells.at(0);
    const Classifier* classifier =
        store.classifier_for(GroupKey{cell.num_inputs(), cell.num_transistors()});
    std::string answer;
    if (classifier != nullptr) {
      double canonical_us = 0.0, prepare = 0.0, classify = 0.0, serialize = 0.0;
      const CanonicalCell canonical =
          stage("camatrix.canonicalize", &canonical_us, [&] { return canonicalize(cell); });
      std::vector<Defect> defects =
          stage("defect.enumerate", nullptr, [&] { return enumerate_defects(cell); });
      PreparedPrediction prepared = stage("camatrix.prepare", &prepare, [&] {
        return prepare_prediction(cell, canonical, policy.policy_for(cell.num_inputs()),
                                  SimConfig{}, store.matrix_options(), std::move(defects));
      });
      const CaMatrix& matrix = prepared.matrix;
      const std::vector<std::uint8_t> labels = stage("store.classify", &classify, [&] {
        return matrix.num_rows() == 0
                   ? std::vector<std::uint8_t>{}
                   : classifier->predict_batch(matrix.features().data(), matrix.num_rows(),
                                               matrix.num_features());
      });
      const CaModel model = stage("camodel.finish", nullptr, [&] {
        return finish_prediction(std::move(prepared), labels.data());
      });
      answer = stage("camodel.serialize", &serialize,
                     [&] { return ca_model_to_string(model, cell); });
      stages.canonicalize.push_back(canonical_us);
      stages.prepare.push_back(prepare);
      stages.classify.push_back(classify);
      stages.serialize.push_back(serialize);
    }
    serve::Frame response;
    response.type = classifier != nullptr ? serve::MsgType::kPredictOk : serve::MsgType::kError;
    response.request_id = frame.request_id;
    response.payload = classifier != nullptr
                           ? answer
                           : serve::encode_error({serve::ErrorCode::kNoGroup, 0, "no group"});
    stage("serve.codec", &codec,
          [&] { return serve::decode_frame(serve::encode_frame(response)); });
    stages.codec.push_back(codec);
    stages.parse.push_back(parse);
    const bool ok = item.no_group ? classifier == nullptr
                                  : classifier != nullptr && answer == item.expected;
    r.wrong += ok ? 0 : 1;
    ++r.requests;
  }
  r.wall_s = seconds_since(t0);
  return r;
}

}  // namespace

Result run_serve(const RunOptions& options, Ledger& ledger) {
  Result result;
  const double rate = options.serve_rate;
  if (rate <= 0.0) throw Error("serve_mixed needs --serve-rate");
  const std::string store_path = options.work_dir + "/models.bin";
  const std::string socket = options.work_dir + "/caml.sock";

  // Set-up: libraries, 28SOI ground truth, forest training, binary
  // store, expected answers, daemon start until a ping answers.
  const Clock::time_point s0 = Clock::now();
  const BenchmarkSuite suite = make_suite(options.smoke);
  const GroupModelStore store = GroupModelStore::train(
      characterize_library(suite.soi28, truth_options(options.jobs)), forest_options(options.jobs));
  store::write_binary_store_file(store_path, store);
  const std::vector<PoolCell> pool = build_pool(suite, store, options.jobs);
  Daemon daemon(options.caml_binary, store_path, socket, options.work_dir + "/daemon.log");
  wait_for_ping(daemon, socket);
  const double setup_s = seconds_since(s0);
  std::size_t no_group = 0;
  for (const PoolCell& c : pool) no_group += c.no_group ? 1 : 0;
  std::cerr << "perfbench: " << options.workload << " pool " << pool.size() << " cells ("
            << no_group << " NO_GROUP), set-up " << setup_s << " s\n";

  serve::ClientOptions copts;
  copts.socket_path = socket;
  serve::Client stats_client(copts);
  SeededRng rng(options.seed);
  Deck deck(pool.size(), rng);
  LoadGen gen(socket, pool);

  const Stats before = Stats::parse(stats_client.stats());
  const OpenLoop open = run_open_loop(gen, deck, rng, rate, options.seconds);
  const Stats after = Stats::parse(stats_client.stats());
  const ClosedLoop closed = run_closed_loop(gen, deck, kClosedPasses * pool.size());

  std::vector<double> latency_ms;
  std::uint64_t open_failed = 0;
  for (const Outcome& o : open.outcomes) {
    latency_ms.push_back(o.latency_ms);
    open_failed += o.ok ? 0 : 1;
  }
  result.count(open.outcomes.size(), open_failed);
  result.count(closed.attempted, closed.failed);
  const double p50 = quantile(latency_ms, 0.5);
  const double p99 = quantile(latency_ms, 0.99);
  std::cerr << "perfbench: open loop " << open.outcomes.size() << " requests at " << rate
            << " req/s: p50 " << p50 << " ms, p99 " << p99 << " ms, failed " << open_failed
            << "; closed loop " << closed.rps << " req/s, failed " << closed.failed << '\n';

  // Everything measured on the live daemon is done; the traced run's
  // in-process replays below do not touch it.
  const double daemon_rss_mb = daemon.stop();

  result.e2e("setup_s", setup_s, "s");
  result.e2e("peak_rss_mb", daemon_rss_mb, "MB");
  result.e2e("throughput_per_s", closed.rps, "1/s");
  result.e2e("p50_ms", p50, "ms");
  result.e2e("p99_ms", p99, "ms");
  result.e2e("accuracy",
             static_cast<double>(result.attempted - result.failed) /
                 static_cast<double>(result.attempted),
             "ratio");

  if (!ledger.enabled()) return result;

  std::vector<double> open_ms;
  for (int i = 0; i < kStoreOpenRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    const std::shared_ptr<const ModelStore> opened = store::open_model_store(store_path);
    if (opened->num_groups() != store.num_groups()) throw Error("reopened store lost groups");
    open_ms.push_back(seconds_since(t0) * 1e3);
  }
  const store::MappedModelStore mapped = store::MappedModelStore::open(store_path);
  const double budget = options.seconds * kReplayShare;
  const Replay untraced = replay_untraced(mapped, pool, open.cells, budget);
  StageTimes stages;
  const Replay traced = replay_traced(mapped, pool, open.cells, untraced.requests, ledger, stages);
  result.count(untraced.requests, untraced.wrong);
  result.count(traced.requests, traced.wrong);

  const std::map<std::string, double> self = ledger.self_seconds();
  double stage_s = 0.0;
  for (const auto& [layer, s] : self) {
    if (layer != "serve.request") stage_s += s;
  }
  const double compute_p50_us = median(untraced.compute_us);
  const double sojourn_p99_us =
      histogram_quantile(before, after, "caml_serve_queue_sojourn_us", 0.99);
  const double batches = after.scalar("caml_serve_batch_size_count") -
                         before.scalar("caml_serve_batch_size_count");
  const double batch_sum =
      after.scalar("caml_serve_batch_size_sum") - before.scalar("caml_serve_batch_size_sum");
  const auto delta = [&](const std::string& name) {
    return after.scalar(name) - before.scalar(name);
  };

  result.layer("serve.p50_ms", p50, "ms");
  result.layer("serve.p99_ms", p99, "ms");
  result.layer("serve.sat_rps", closed.rps, "1/s");
  result.layer("serve.codec_us", median(stages.codec), "us");
  result.layer("netlist.parse_us", median(stages.parse), "us");
  result.layer("camatrix.canonicalize_us", median(stages.canonicalize), "us");
  result.layer("camodel.serialize_us", median(stages.serialize), "us");
  result.layer("camatrix.prepare_us", median(stages.prepare), "us");
  result.layer("store.classify_us", median(stages.classify), "us");
  result.layer("serve.compute_us", compute_p50_us, "us");
  result.layer("serve.transport_ms", p50 - compute_p50_us / 1e3, "ms");
  result.layer("serve.batch_mean", batches > 0.0 ? batch_sum / batches : 0.0, "count");
  result.layer("serve.queue_sojourn_p99_ms", sojourn_p99_us / 1e3, "ms");
  result.layer("serve.shed", delta("caml_serve_shed_expired_total") +
                                 delta("caml_serve_shed_overload_total"),
               "count");
  result.layer("serve.rejected", delta("caml_serve_rejected_overload_total"), "count");
  result.layer("serve.gen_lag_ms", quantile(open.lag_ms, 0.99), "ms");
  result.layer("store.open_ms", median(open_ms), "ms");
  result.layer("latency.samples", static_cast<double>(latency_ms.size()), "count");
  result.layer("trace.overhead_share", (traced.wall_s - untraced.wall_s) / untraced.wall_s,
               "ratio");
  result.layer("unattributed_share", 1.0 - stage_s / traced.wall_s, "ratio");
  return result;
}

}  // namespace perfbench
