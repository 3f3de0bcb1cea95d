#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "flow/model_store.hpp"
#include "serve/batch.hpp"
#include "serve/protocol.hpp"
#include "serve/stats.hpp"
#include "util/net.hpp"
#include "util/thread_pool.hpp"

namespace caml::serve {

struct ServerOptions {
  /// Unix-domain socket path. When empty the server listens on loopback
  /// TCP `tcp_port` instead (0 = pick an ephemeral port; see port()).
  std::string socket_path;
  std::uint16_t tcp_port = 0;
  /// Compute-plane worker threads draining coalesced predict batches
  /// (0 = one per hardware thread). Connections are NOT pinned to
  /// workers: the reactor multiplexes every connection and any worker
  /// answers any request.
  std::size_t jobs = 0;
  /// Admission control: connections beyond `jobs + max_queue` are
  /// rejected immediately with a kOverloaded error carrying
  /// retry_after_ms — bounded memory under overload instead of
  /// unbounded connection growth.
  std::size_t max_queue = 64;
  /// Requests coalesced into one compute batch: the reactor queues
  /// decoded PREDICT requests from all connections and a worker drains
  /// up to max_batch of them at once under one store snapshot.
  std::size_t max_batch = 32;
  /// Per-frame read deadline once bytes of a frame started arriving.
  int read_timeout_ms = 5000;
  /// How long a keep-alive connection may sit idle between requests
  /// before the server closes it. Also bounds the shutdown drain of
  /// in-flight connections: stop() never waits longer than this for a
  /// chatty client.
  int idle_timeout_ms = 2000;
  /// Backpressure hint clients receive in kOverloaded rejects.
  std::uint32_t retry_after_ms = 50;
  /// Latency-signal admission policy: when the p99 queue sojourn over
  /// the most recent computed PREDICTs exceeds this target, new PREDICTs
  /// are shed with kOverloaded before they enter the queue — the queue
  /// is already slower than anyone's patience, so adding to it only
  /// manufactures future DEADLINE_EXCEEDED answers. 0 disables the
  /// policy (the fixed bound of 1024 pending PREDICTs still applies
  /// either way). `caml serve` defaults this on; the library default
  /// stays off so embedded/test servers behave deterministically.
  int sojourn_target_ms = 0;
};

/// Long-lived inference daemon: loads a trained GroupModelStore once and
/// answers CA-model prediction requests over the serve protocol.
///
/// Architecture — connection plane vs. compute plane:
///
///   * One reactor thread owns every client fd in a poll() event loop:
///     non-blocking reads feed per-connection FrameAssemblers (buffers
///     pooled and reused across connections), cheap requests (PING,
///     STATS, protocol errors) are answered inline, and responses are
///     written through per-connection output queues, so any number of
///     pipelined requests can be in flight per connection while
///     responses still go out in request order.
///   * `jobs` ThreadPool workers form the compute plane: each drains up
///     to max_batch decoded PREDICT requests — coalesced across all
///     connections — and answers them with one factored
///     Classifier::predict_product walk per request (see
///     serve/batch.hpp). Finished frames are handed back to the reactor
///     over a wakeup pipe.
///
/// The wire protocol is byte-compatible with the thread-per-connection
/// server this replaced; existing clients work unchanged.
///
/// Lifecycle: construct → start() (binds + spawns threads; throws on
/// bind failure) → stop() (graceful: checks the stop signal before any
/// connection work, stops accepting, finishes requests already decoded,
/// and bounds the drain by idle_timeout_ms so a chatty keep-alive
/// client cannot starve shutdown). stop() is idempotent and also runs
/// from the destructor. It is NOT async-signal-safe — signal handlers
/// should write to a self-pipe and let the main thread call stop() (see
/// `caml serve`).
///
/// Hot reload: reload() atomically swaps in a replacement store.
/// Callers load + validate the new store first (off the serving
/// threads) and only call reload() on success, so a corrupt file on
/// disk never displaces the store that is already serving. In-flight
/// batches finish on the snapshot they started with; subsequent batches
/// see the new store.
class Server {
 public:
  /// Serves any ModelStore implementation — the owning GroupModelStore
  /// or a zero-copy store::MappedModelStore over the binary section.
  Server(std::shared_ptr<const ModelStore> store, ServerOptions options);
  /// Convenience: wraps an owning store (the common test/train path).
  Server(GroupModelStore store, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void start();
  void stop();

  /// Atomically replaces the model store (SIGHUP hot-reload). Safe to
  /// call while serving; never blocks workers beyond a pointer swap.
  /// The shared_ptr form also swaps in a mapped binary store — the old
  /// mapping stays alive until the last in-flight batch drops its
  /// snapshot.
  void reload(std::shared_ptr<const ModelStore> store);
  void reload(GroupModelStore store);

  /// Installs a callback that re-opens the store from its source of
  /// truth (disk). When a serving snapshot is found faulted (SIGBUS on
  /// the mapping, or the backing file's size changed), the server calls
  /// it to force a reload; if it throws or returns null the server falls
  /// back to the last-good snapshot. Call before start().
  void set_store_refresh(std::function<std::shared_ptr<const ModelStore>()> refresh) {
    refresh_ = std::move(refresh);
  }

  bool running() const { return started_ && !draining_; }
  /// Actual TCP port (resolves tcp_port == 0); 0 for Unix-domain mode.
  std::uint16_t port() const { return bound_port_; }
  const ServerOptions& options() const { return options_; }

  StatsSnapshot stats() const { return stats_.snapshot(); }

 private:
  struct Connection;

  void reactor_loop();
  void worker_loop();

  // Reactor internals (reactor thread only).
  void accept_new_connections();
  void handle_readable(Connection& conn);
  void handle_writable(Connection& conn);
  void dispatch_frame(Connection& conn, Frame frame);
  void enqueue_response(Connection& conn, std::uint64_t seq, Frame frame,
                        std::int64_t started_us);
  void enqueue_encoded(Connection& conn, std::uint64_t seq, std::string bytes,
                       std::int64_t started_us);
  void drain_completions();
  void begin_close(Connection& conn);
  void close_connection(std::size_t index);
  void sweep_deadlines(std::int64_t now_us);
  void publish_queue_depth();
  bool fully_drained() const;

  /// The store serving right now. Each compute batch takes one snapshot
  /// and uses it throughout, so a concurrent reload() can never swap the
  /// models out from under a half-finished prediction.
  std::shared_ptr<const ModelStore> store_snapshot() const;

  /// Records one queue sojourn into the admission policy's sliding
  /// window. Caller holds jobs_mutex_.
  void record_sojourn_locked(std::int64_t sojourn_us);
  /// True when the policy is on and the window's p99 exceeds the target
  /// (also publishes the p99 gauge). Caller holds jobs_mutex_.
  bool sojourn_over_target_locked();
  /// Store-fault recovery (worker threads): if `faulted` is still the
  /// serving store, force a refresh from disk, falling back to the
  /// last-good snapshot. Never throws; the daemon keeps running even
  /// when no good store is reachable (requests keep failing INTERNAL
  /// until a SIGHUP or a successful refresh).
  void handle_store_fault(const std::shared_ptr<const ModelStore>& faulted);

  std::shared_ptr<const ModelStore> store_;  // guarded by store_mutex_
  /// Previous store kept across reload() (unless it faulted) — the
  /// fallback snapshot store-fault recovery swaps back in when the
  /// refresh callback cannot produce a good store.
  std::shared_ptr<const ModelStore> last_good_;  // guarded by store_mutex_
  bool store_faulted_ = false;                   // guarded by store_mutex_
  std::function<std::shared_ptr<const ModelStore>()> refresh_;  // set before start()
  mutable std::mutex store_mutex_;
  const ServerOptions options_;
  std::size_t worker_count_ = 0;

  Fd listener_;
  Pipe stop_pipe_;  // wr end closed by stop(): the reactor sees POLLHUP
  Pipe wake_pipe_;  // workers write one byte after publishing completions
  std::uint16_t bound_port_ = 0;
  bool started_ = false;
  bool stopped_ = false;
  std::atomic<bool> draining_{false};

  std::thread reactor_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::future<void>> worker_futures_;

  // Reactor-owned connection table: conns_[i] may be null (closed slot);
  // closed Connection objects park in conn_pool_ so their frame buffers
  // are reused by the next accept.
  std::vector<std::unique_ptr<Connection>> conns_;
  std::vector<std::unique_ptr<Connection>> conn_pool_;
  std::uint64_t next_conn_id_ = 1;
  std::size_t admitted_ = 0;           ///< live, non-rejected connections
  std::vector<char> read_scratch_;     ///< one shared socket-read buffer
  bool stopping_ = false;              ///< reactor saw the stop signal
  std::int64_t stop_deadline_us_ = 0;  ///< bounded-drain deadline once stopping

  // Reactor → compute plane: coalesced predict-job queue.
  std::mutex jobs_mutex_;
  std::condition_variable jobs_cv_;
  std::deque<PredictJob> job_queue_;
  bool jobs_draining_ = false;
  std::size_t jobs_inflight_ = 0;  ///< popped but not yet completed (guarded by jobs_mutex_)
  /// Sliding window of recent queue sojourns feeding the p99 admission
  /// policy (guarded by jobs_mutex_; plain ring, no allocation on the
  /// hot path).
  std::array<std::uint32_t, 128> sojourn_ring_{};
  std::size_t sojourn_count_ = 0;

  // Compute plane → reactor: finished responses.
  std::mutex done_mutex_;
  std::vector<PredictOutcome> done_;

  ServeStats stats_;
};

}  // namespace caml::serve
