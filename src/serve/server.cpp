#include "serve/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>
#include <map>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/timing.hpp"

namespace caml::serve {

namespace {

/// Cap on bytes read from one connection per reactor round, so a
/// flooding client cannot starve its neighbours inside one poll cycle.
constexpr std::size_t kReadBudgetPerRound = 256 * 1024;
/// How long a half-closed connection is drained (discarding unread
/// request bytes) so the final frame arrives ahead of a clean FIN
/// instead of being destroyed by an RST.
constexpr std::int64_t kHalfCloseDrainUs = 250'000;
/// Decoded PREDICT requests allowed to wait for the compute plane.
/// Beyond it, requests are answered kOverloaded (the connection stays
/// open) — backpressure for deeply pipelined clients.
constexpr std::size_t kMaxPendingPredicts = 1024;
/// Deadline for a stalled response write (no progress while bytes are
/// queued for the peer).
constexpr std::int64_t kWriteTimeoutMs = 5000;

Frame error_frame(std::uint64_t request_id, ErrorCode code, const std::string& message,
                  std::uint32_t retry_after_ms = 0) {
  Frame frame;
  frame.type = MsgType::kError;
  frame.request_id = request_id;
  frame.payload = encode_error(ErrorBody{code, retry_after_ms, message});
  return frame;
}

}  // namespace

/// Per-connection reactor state. The frame-assembly and output buffers
/// are the expensive parts; closed Connection objects park in the
/// server's pool and are recycled (capacity intact) by the next accept.
struct Server::Connection {
  /// One encoded response waiting for (or mid-way through) the wire.
  struct OutFrame {
    std::string bytes;
    /// Decode timestamp of the request this answers; -1 for frames that
    /// answer no readable request (overload rejects, malformed-frame
    /// errors) — those never feed the latency histogram.
    std::int64_t started_us = -1;
  };

  Fd fd;
  std::uint64_t id = 0;
  bool admitted = true;  ///< false: overload-rejected at accept, never read
  FrameAssembler assembler;

  std::deque<OutFrame> out;   ///< in-order responses, front partially written
  std::size_t out_off = 0;    ///< bytes of out.front() already on the wire
  std::uint64_t next_seq = 0;        ///< sequence assigned to the next decoded request
  std::uint64_t next_flush_seq = 0;  ///< next sequence allowed onto the wire
  std::map<std::uint64_t, OutFrame> reorder;  ///< completed out of order

  std::size_t inflight = 0;  ///< decoded predicts awaiting the compute plane
  bool close_after_flush = false;
  bool draining_reads = false;  ///< write side shut; discarding input until EOF
  bool read_eof = false;

  std::int64_t idle_deadline_us = 0;
  std::int64_t read_deadline_us = -1;   ///< armed while a frame is partial
  std::int64_t write_deadline_us = -1;  ///< armed while output is queued
  std::int64_t drain_deadline_us = -1;  ///< armed while draining_reads

  bool quiet() const { return inflight == 0 && out.empty() && reorder.empty(); }

  void recycle() {
    fd.reset();
    id = 0;
    admitted = true;
    assembler.reset();
    out.clear();
    out_off = 0;
    next_seq = 0;
    next_flush_seq = 0;
    reorder.clear();
    inflight = 0;
    close_after_flush = false;
    draining_reads = false;
    read_eof = false;
    read_deadline_us = -1;
    write_deadline_us = -1;
    drain_deadline_us = -1;
  }
};

Server::Server(std::shared_ptr<const ModelStore> store, ServerOptions options)
    : store_(std::move(store)), options_(std::move(options)) {
  CAML_ASSERT(store_ != nullptr);
}

Server::Server(GroupModelStore store, ServerOptions options)
    : Server(std::make_shared<const GroupModelStore>(std::move(store)),
             std::move(options)) {}

Server::~Server() { stop(); }

std::shared_ptr<const ModelStore> Server::store_snapshot() const {
  std::lock_guard<std::mutex> lock(store_mutex_);
  return store_;
}

void Server::record_sojourn_locked(std::int64_t sojourn_us) {
  const std::uint32_t clamped = static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(sojourn_us, 0, std::numeric_limits<std::uint32_t>::max()));
  sojourn_ring_[sojourn_count_ % sojourn_ring_.size()] = clamped;
  ++sojourn_count_;
}

bool Server::sojourn_over_target_locked() {
  if (options_.sojourn_target_ms <= 0) return false;
  const std::size_t n = std::min(sojourn_count_, sojourn_ring_.size());
  // Too few samples to call a percentile — a cold server must not shed.
  if (n < 8) return false;
  std::array<std::uint32_t, 128> window;
  std::copy_n(sojourn_ring_.begin(), n, window.begin());
  const std::size_t rank = (99 * (n - 1)) / 100;
  std::nth_element(window.begin(), window.begin() + rank, window.begin() + n);
  const std::uint32_t p99_us = window[rank];
  stats_.update_sojourn_p99(p99_us);
  return p99_us > static_cast<std::uint64_t>(options_.sojourn_target_ms) * 1000;
}

void Server::reload(std::shared_ptr<const ModelStore> store) {
  CAML_ASSERT(store != nullptr);
  {
    std::lock_guard<std::mutex> lock(store_mutex_);
    // The outgoing store becomes the recovery fallback — unless it is
    // the one being replaced BECAUSE it faulted.
    if (!store_faulted_ && store_ != store) last_good_ = store_;
    store_faulted_ = false;
    store_.swap(store);
  }
  stats_.record_reload();
  log_info() << "model store reloaded: " << store_snapshot()->num_groups()
             << " group models now serving";
}

void Server::handle_store_fault(const std::shared_ptr<const ModelStore>& faulted) {
  stats_.record_store_fault();
  {
    std::lock_guard<std::mutex> lock(store_mutex_);
    if (store_ != faulted) return;  // another worker already recovered
    store_faulted_ = true;
  }
  // Re-open from the source of truth off the store lock (disk I/O).
  std::shared_ptr<const ModelStore> fresh;
  if (refresh_) {
    try {
      fresh = refresh_();
    } catch (const std::exception& e) {
      log_error() << "store refresh after fault failed: " << e.what();
    }
  }
  if (fresh != nullptr) {
    log_warn() << "store fault: refreshed the model store from disk";
    reload(std::move(fresh));
    return;
  }
  std::shared_ptr<const ModelStore> fallback;
  {
    std::lock_guard<std::mutex> lock(store_mutex_);
    if (store_ != faulted) return;  // recovered concurrently after all
    if (last_good_ != nullptr && last_good_ != faulted) fallback = last_good_;
  }
  if (fallback != nullptr) {
    log_warn() << "store fault: no refresh available, serving the last-good snapshot";
    reload(std::move(fallback));
    return;
  }
  // Nothing to swap to: keep serving (requests against the faulted
  // snapshot keep failing INTERNAL; the guard keeps the process alive
  // until a SIGHUP reload brings a good store).
  log_error() << "store fault: no replacement store available; serving degraded";
}

void Server::reload(GroupModelStore store) {
  reload(std::make_shared<const GroupModelStore>(std::move(store)));
}

void Server::start() {
  CAML_ASSERT(!started_);
  stop_pipe_ = make_pipe();
  wake_pipe_ = make_pipe();
  if (!options_.socket_path.empty()) {
    listener_ = listen_unix(options_.socket_path);
  } else {
    listener_ = listen_tcp(options_.tcp_port);
    bound_port_ = local_port(listener_.get());
  }
  // Non-blocking listener: poll() readiness can be stale (aborted
  // handshake), and the reactor must never block inside accept(). The
  // fcntl result is checked — a silently blocking listener would stall
  // the whole event loop on one accept.
  set_nonblocking(listener_.get(), true, "serve listener");

  worker_count_ = resolve_jobs(options_.jobs);
  read_scratch_.resize(64 * 1024);
  pool_ = std::make_unique<ThreadPool>(worker_count_);
  worker_futures_.reserve(worker_count_);
  for (std::size_t i = 0; i < worker_count_; ++i) {
    worker_futures_.push_back(pool_->submit([this] { worker_loop(); }));
  }
  reactor_ = std::thread([this] { reactor_loop(); });
  started_ = true;
  log_info() << "serving " << store_snapshot()->num_groups() << " group models on "
             << (options_.socket_path.empty()
                     ? "tcp 127.0.0.1:" + std::to_string(bound_port_)
                     : options_.socket_path)
             << " (event loop + " << worker_count_ << " compute workers, batch "
             << options_.max_batch << ", queue " << options_.max_queue << ")";
}

void Server::stop() {
  if (!started_ || stopped_) return;
  draining_ = true;
  // Closing the write end raises POLLHUP on the read end: the reactor
  // wakes, stops accepting, and drains in-flight work bounded by
  // idle_timeout_ms.
  stop_pipe_.wr.reset();
  if (reactor_.joinable()) reactor_.join();
  {
    // The reactor is gone: responses to still-queued requests have no
    // reader, so the backlog is dropped rather than computed into the
    // void. In-flight batches finish on their own.
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_draining_ = true;
    job_queue_.clear();
    stats_.update_predict_backlog(0);
  }
  jobs_cv_.notify_all();
  for (std::future<void>& f : worker_futures_) {
    try {
      f.get();
    } catch (const std::exception& e) {
      log_error() << "serve worker died: " << e.what();
    }
  }
  worker_futures_.clear();
  pool_.reset();
  listener_.reset();
  if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
  stopped_ = true;
}

// ---------------------------------------------------------------------------
// Compute plane

void Server::worker_loop() {
  for (;;) {
    std::vector<PredictJob> batch;
    std::vector<PredictOutcome> shed;
    std::vector<std::int64_t> sojourns;
    std::size_t popped = 0;
    {
      std::unique_lock<std::mutex> lock(jobs_mutex_);
      jobs_cv_.wait(lock, [this] { return jobs_draining_ || !job_queue_.empty(); });
      if (job_queue_.empty()) return;  // draining and fully drained
      const std::size_t n = std::min(job_queue_.size(), std::max<std::size_t>(
                                                            options_.max_batch, 1));
      const std::int64_t now = monotonic_us();
      batch.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        PredictJob job = std::move(job_queue_.front());
        job_queue_.pop_front();
        record_sojourn_locked(now - job.enqueued_us);
        sojourns.push_back(now - job.enqueued_us);
        if (job.deadline_us >= 0 && now >= job.deadline_us) {
          // The client's deadline already passed while the job queued:
          // computing the answer would be pure waste — shed it with a
          // structured DEADLINE_EXCEEDED instead.
          PredictOutcome out;
          out.kind = PredictOutcome::Kind::kShed;
          out.conn_id = job.conn_id;
          out.seq = job.seq;
          out.enqueued_us = -1;  // sheds never feed the latency histogram
          out.response = error_frame(job.request_id, ErrorCode::kDeadlineExceeded,
                                     "deadline expired after " +
                                         std::to_string((now - job.enqueued_us) / 1000) +
                                         " ms in queue; request shed before compute");
          shed.push_back(std::move(out));
        } else {
          batch.push_back(std::move(job));
        }
      }
      popped = n;
      jobs_inflight_ += popped;
      stats_.update_predict_backlog(job_queue_.size());
    }
    for (const std::int64_t s : sojourns) stats_.record_sojourn_us(s);

    std::vector<PredictOutcome> outcomes;
    if (!batch.empty()) {
      stats_.record_batch(batch.size());
      const std::shared_ptr<const ModelStore> snap = store_snapshot();
      if (!snap->healthy()) {
        // Backing storage changed under the mapping (size revalidation
        // failed): answers would be garbage or SIGBUS. Fail the batch
        // up front and trigger recovery.
        for (PredictJob& job : batch) {
          PredictOutcome out;
          out.kind = PredictOutcome::Kind::kError;
          out.store_fault = true;
          out.conn_id = job.conn_id;
          out.seq = job.seq;
          out.enqueued_us = job.enqueued_us;
          out.response = error_frame(job.request_id, ErrorCode::kInternal,
                                     "model store backing file changed under the mapping");
          outcomes.push_back(std::move(out));
        }
      } else {
        outcomes = answer_predict_batch(*snap, PolicyProfile{}, std::move(batch));
      }
      bool faulted = false;
      for (const PredictOutcome& o : outcomes) {
        if (o.store_fault) faulted = true;
        switch (o.kind) {
          case PredictOutcome::Kind::kOk: stats_.record_ok(1, o.rows_classified); break;
          case PredictOutcome::Kind::kNoGroup: stats_.record_no_group(); break;
          case PredictOutcome::Kind::kError: stats_.record_error(); break;
          case PredictOutcome::Kind::kShed: stats_.record_shed_expired(); break;
        }
      }
      if (faulted) handle_store_fault(snap);
    }
    for (PredictOutcome& o : shed) {
      stats_.record_shed_expired();
      outcomes.push_back(std::move(o));
    }
    {
      std::lock_guard<std::mutex> lock(done_mutex_);
      done_.insert(done_.end(), std::make_move_iterator(outcomes.begin()),
                   std::make_move_iterator(outcomes.end()));
    }
    {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      jobs_inflight_ -= popped;
    }
    // Wake the reactor. A full pipe means wakeups are already pending —
    // EAGAIN is success here.
    const char byte = 0;
    [[maybe_unused]] const ssize_t rc = ::write(wake_pipe_.wr.get(), &byte, 1);
  }
}

// ---------------------------------------------------------------------------
// Connection plane (reactor thread)

void Server::publish_queue_depth() {
  const std::size_t depth = admitted_ > worker_count_ ? admitted_ - worker_count_ : 0;
  stats_.update_queue_depth(depth);
}

void Server::enqueue_response(Connection& conn, std::uint64_t seq, Frame frame,
                              std::int64_t started_us) {
  enqueue_encoded(conn, seq, encode_frame(frame), started_us);
}

void Server::enqueue_encoded(Connection& conn, std::uint64_t seq, std::string bytes,
                             std::int64_t started_us) {
  Connection::OutFrame out{std::move(bytes), started_us};
  if (seq != conn.next_flush_seq) {
    // Completed out of request order (a later pipelined request finished
    // in an earlier batch): hold it until its turn so the wire carries
    // responses in request order.
    conn.reorder.emplace(seq, std::move(out));
    return;
  }
  const bool was_empty = conn.out.empty();
  conn.out.push_back(std::move(out));
  ++conn.next_flush_seq;
  for (auto it = conn.reorder.begin();
       it != conn.reorder.end() && it->first == conn.next_flush_seq;
       it = conn.reorder.erase(it)) {
    conn.out.push_back(std::move(it->second));
    ++conn.next_flush_seq;
  }
  if (was_empty) {
    conn.write_deadline_us =
        monotonic_us() + kWriteTimeoutMs * 1000;
    // Try the wire immediately — most responses fit the socket buffer
    // and never wait for the next poll round.
    handle_writable(conn);
  }
}

void Server::dispatch_frame(Connection& conn, Frame frame) {
  const std::int64_t now = monotonic_us();
  conn.idle_deadline_us = now + static_cast<std::int64_t>(options_.idle_timeout_ms) * 1000;
  const std::uint64_t seq = conn.next_seq++;

  if (frame.version == 0 || frame.version > kMaxProtocolVersion) {
    stats_.record_error();
    enqueue_response(conn, seq,
                     error_frame(frame.request_id, ErrorCode::kUnsupportedVersion,
                                 "server speaks protocol versions 1-" +
                                     std::to_string(kMaxProtocolVersion) +
                                     ", request carried " + std::to_string(frame.version)),
                     now);
    conn.close_after_flush = true;  // later frames of an unknown dialect are untrustworthy
    return;
  }
  switch (frame.type) {
    case MsgType::kPing: {
      stats_.record_ping();
      Frame pong;
      pong.type = MsgType::kPong;
      pong.request_id = frame.request_id;
      enqueue_response(conn, seq, std::move(pong), now);
      return;
    }
    case MsgType::kStats: {
      // Unified snapshot: every subsystem's caml_* metrics (serve, pool,
      // flows, forests) from the process-wide registry.
      stats_.record_stats_request();
      Frame response;
      response.type = MsgType::kStatsOk;
      response.request_id = frame.request_id;
      response.payload = obs::Registry::global().snapshot().to_text();
      enqueue_response(conn, seq, std::move(response), now);
      return;
    }
    case MsgType::kPredictCell: {
      PredictPayload req;
      try {
        req = split_predict_payload(frame.version, std::move(frame.payload));
      } catch (const ProtocolError& e) {
        stats_.record_error();
        enqueue_response(conn, seq,
                         error_frame(frame.request_id, ErrorCode::kBadRequest, e.what()),
                         now);
        return;
      }
      bool queue_full = false;
      bool latency_shed = false;
      {
        std::lock_guard<std::mutex> lock(jobs_mutex_);
        if (job_queue_.size() >= kMaxPendingPredicts) {
          queue_full = true;  // hard memory bound, checked first
        } else if (sojourn_over_target_locked()) {
          // Latency-signal shedding: the queue's recent p99 sojourn
          // already exceeds the target, so this request would most
          // likely expire in line. Turn it away while it is still
          // cheap — before it costs queue memory and compute.
          latency_shed = true;
        } else {
          PredictJob job;
          job.conn_id = conn.id;
          job.seq = seq;
          job.request_id = frame.request_id;
          job.netlist = std::move(req.netlist);
          job.enqueued_us = now;
          if (req.deadline_ms > 0) {
            job.deadline_us = now + static_cast<std::int64_t>(req.deadline_ms) * 1000;
          }
          job_queue_.push_back(std::move(job));
          stats_.update_predict_backlog(job_queue_.size());
        }
      }
      if (queue_full || latency_shed) {
        // Request-level backpressure: the connection survives, only this
        // request is asked to come back later.
        if (latency_shed) {
          stats_.record_shed_overload();
        } else {
          stats_.record_reject();
        }
        enqueue_response(conn, seq,
                         error_frame(frame.request_id, ErrorCode::kOverloaded,
                                     std::string(latency_shed ? "queue sojourn p99 over "
                                                                "target; retry after "
                                                              : "request queue full; "
                                                                "retry after ") +
                                         std::to_string(options_.retry_after_ms) + " ms",
                                     options_.retry_after_ms),
                         -1);
        return;
      }
      ++conn.inflight;
      jobs_cv_.notify_one();
      return;
    }
    default: {
      stats_.record_error();
      enqueue_response(conn, seq,
                       error_frame(frame.request_id, ErrorCode::kBadRequest,
                                   "unknown message type " +
                                       std::to_string(static_cast<unsigned>(frame.type))),
                       now);
      return;
    }
  }
}

void Server::handle_readable(Connection& conn) {
  std::size_t budget = kReadBudgetPerRound;
  while (budget > 0) {
    const IoResult r = read_some(conn.fd.get(), read_scratch_.data(), read_scratch_.size());
    if (r.would_block) break;
    if (r.closed) {
      conn.read_eof = true;
      return;
    }
    budget -= std::min(budget, r.bytes);
    if (conn.draining_reads) continue;  // half-closed: discard everything
    try {
      conn.assembler.feed(read_scratch_.data(), r.bytes);
      while (!conn.close_after_flush && !stopping_) {
        std::optional<Frame> frame = conn.assembler.next_frame();
        if (!frame) break;
        dispatch_frame(conn, std::move(*frame));
      }
    } catch (const ProtocolError& e) {
      // Malformed bytes: framing is unrecoverable on this connection.
      // Answer best-effort (after any responses already owed) and
      // close; the server itself keeps serving.
      log_warn() << "closing connection on malformed frame: " << e.what();
      stats_.record_error();
      enqueue_response(conn, conn.next_seq++,
                       error_frame(0, ErrorCode::kBadRequest, e.what()), -1);
      conn.close_after_flush = true;
      return;
    }
    if (r.bytes < read_scratch_.size()) break;  // socket drained
  }
  // Arm the per-frame read deadline when a frame is mid-assembly; a
  // completed frame disarms it.
  if (conn.assembler.has_partial()) {
    if (conn.read_deadline_us < 0) {
      conn.read_deadline_us =
          monotonic_us() + static_cast<std::int64_t>(options_.read_timeout_ms) * 1000;
    }
  } else {
    conn.read_deadline_us = -1;
  }
}

void Server::handle_writable(Connection& conn) {
  while (!conn.out.empty()) {
    Connection::OutFrame& front = conn.out.front();
    const IoResult r = write_some(conn.fd.get(), front.bytes.data() + conn.out_off,
                                  front.bytes.size() - conn.out_off);
    if (r.closed) {
      conn.read_eof = true;  // peer gone; sweep closes the connection
      conn.out.clear();
      conn.out_off = 0;
      return;
    }
    if (r.would_block) return;
    conn.out_off += r.bytes;
    conn.write_deadline_us =
        monotonic_us() + kWriteTimeoutMs * 1000;
    if (conn.out_off < front.bytes.size()) continue;
    if (front.started_us >= 0) {
      stats_.record_latency_us(monotonic_us() - front.started_us);
    }
    conn.out.pop_front();
    conn.out_off = 0;
  }
  conn.write_deadline_us = -1;
  conn.idle_deadline_us =
      monotonic_us() + static_cast<std::int64_t>(options_.idle_timeout_ms) * 1000;
}

void Server::accept_new_connections() {
  for (;;) {
    Fd accepted;
    try {
      accepted = accept_connection(listener_.get());
    } catch (const Error& e) {
      log_warn() << "accept failed: " << e.what();
      return;
    }
    if (!accepted) return;
    stats_.record_connection();
    try {
      set_nonblocking(accepted.get(), true, "accepted connection");
    } catch (const Error& e) {
      // A connection that cannot be made non-blocking would deadlock the
      // reactor on its first stalled read — drop it, keep serving.
      log_warn() << "dropping connection: " << e.what();
      continue;
    }
    if (options_.socket_path.empty()) {
      const int one = 1;
      ::setsockopt(accepted.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }

    std::unique_ptr<Connection> conn;
    if (!conn_pool_.empty()) {
      conn = std::move(conn_pool_.back());
      conn_pool_.pop_back();
    } else {
      conn = std::make_unique<Connection>();
    }
    conn->fd = std::move(accepted);
    conn->id = next_conn_id_++;
    conn->idle_deadline_us =
        monotonic_us() + static_cast<std::int64_t>(options_.idle_timeout_ms) * 1000;

    if (admitted_ >= worker_count_ + options_.max_queue) {
      // Admission control: reject before reading anything (the request
      // id is therefore 0), then half-close and drain so the reject —
      // and its retry-after hint — survives the client's unread bytes.
      conn->admitted = false;
      stats_.record_reject();
      Connection& ref = *conn;
      conns_.push_back(std::move(conn));
      enqueue_response(ref, ref.next_seq++,
                       error_frame(0, ErrorCode::kOverloaded,
                                   "request queue full; retry after " +
                                       std::to_string(options_.retry_after_ms) + " ms",
                                   options_.retry_after_ms),
                       -1);
      ref.close_after_flush = true;
      continue;
    }
    ++admitted_;
    publish_queue_depth();
    conns_.push_back(std::move(conn));
  }
}

void Server::begin_close(Connection& conn) {
  // Half-close: FIN after the flushed responses, then drain unread
  // request bytes briefly. Closing outright with bytes in the receive
  // buffer turns into an RST that can destroy the final frame before
  // the client reads it.
  ::shutdown(conn.fd.get(), SHUT_WR);
  conn.draining_reads = true;
  conn.drain_deadline_us = monotonic_us() + kHalfCloseDrainUs;
}

void Server::close_connection(std::size_t index) {
  std::unique_ptr<Connection>& slot = conns_[index];
  if (!slot) return;
  if (slot->admitted) {
    --admitted_;
    publish_queue_depth();
  }
  slot->recycle();
  conn_pool_.push_back(std::move(slot));
  slot.reset();
}

void Server::drain_completions() {
  std::vector<PredictOutcome> done;
  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    done.swap(done_);
  }
  for (PredictOutcome& outcome : done) {
    Connection* conn = nullptr;
    for (const std::unique_ptr<Connection>& c : conns_) {
      if (c && c->id == outcome.conn_id) {
        conn = c.get();
        break;
      }
    }
    if (conn == nullptr) continue;  // connection died while computing
    CAML_ASSERT(conn->inflight > 0);
    --conn->inflight;
    enqueue_response(*conn, outcome.seq, std::move(outcome.response), outcome.enqueued_us);
  }
}

void Server::sweep_deadlines(std::int64_t now_us) {
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Connection* conn = conns_[i].get();
    if (conn == nullptr) continue;
    if (conn->draining_reads) {
      if (conn->read_eof || now_us >= conn->drain_deadline_us) close_connection(i);
      continue;
    }
    const bool quiet = conn->quiet();
    if (conn->read_eof && quiet) {
      close_connection(i);  // clean EOF (or mid-frame EOF: nothing more can complete)
      continue;
    }
    if (conn->close_after_flush && quiet) {
      begin_close(*conn);
      continue;
    }
    if (stopping_ && quiet) {
      close_connection(i);  // shutdown drain: this connection owes nothing
      continue;
    }
    if (!conn->out.empty() && now_us >= conn->write_deadline_us) {
      log_warn() << "dropping connection: write stalled past "
                 << kWriteTimeoutMs << " ms";
      close_connection(i);
      continue;
    }
    if (conn->assembler.has_partial() && conn->read_deadline_us >= 0 &&
        now_us >= conn->read_deadline_us) {
      log_warn() << "dropping connection: frame incomplete after "
                 << options_.read_timeout_ms << " ms";
      close_connection(i);
      continue;
    }
    if (!stopping_ && quiet && !conn->assembler.has_partial() &&
        now_us >= conn->idle_deadline_us) {
      close_connection(i);  // idle keep-alive expiry
      continue;
    }
  }
}

bool Server::fully_drained() const {
  for (const std::unique_ptr<Connection>& c : conns_) {
    if (c) return false;
  }
  return true;
}

void Server::reactor_loop() {
  std::vector<struct pollfd> pfds;
  std::vector<std::size_t> pfd_conn;
  for (;;) {
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::unique_ptr<Connection>& c) { return !c; }),
                 conns_.end());

    pfds.clear();
    pfd_conn.clear();
    pfds.push_back({stop_pipe_.rd.get(), POLLIN, 0});
    pfds.push_back({wake_pipe_.rd.get(), POLLIN, 0});
    const bool accepting = !stopping_;
    if (accepting) pfds.push_back({listener_.get(), POLLIN, 0});
    const std::size_t conn_base = pfds.size();
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const Connection& conn = *conns_[i];
      short events = 0;
      const bool reads_requests =
          conn.admitted && !conn.close_after_flush && !conn.read_eof && !stopping_;
      if (reads_requests || conn.draining_reads) events |= POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      pfds.push_back({conn.fd.get(), events, 0});
      pfd_conn.push_back(i);
    }

    // Poll until the nearest deadline (connection idle/read/write/drain
    // or the bounded shutdown drain).
    std::int64_t next_deadline = -1;
    const auto consider = [&next_deadline](std::int64_t d) {
      if (d >= 0 && (next_deadline < 0 || d < next_deadline)) next_deadline = d;
    };
    if (stopping_) consider(stop_deadline_us_);
    for (const std::unique_ptr<Connection>& c : conns_) {
      if (c->draining_reads) consider(c->drain_deadline_us);
      if (!c->out.empty()) consider(c->write_deadline_us);
      if (c->assembler.has_partial()) consider(c->read_deadline_us);
      if (!stopping_ && c->quiet() && !c->assembler.has_partial()) {
        consider(c->idle_deadline_us);
      }
    }
    int timeout_ms = -1;
    if (next_deadline >= 0) {
      const std::int64_t left = next_deadline - monotonic_us();
      timeout_ms = left <= 0 ? 0 : static_cast<int>((left + 999) / 1000);
    }

    // Fault injection rides the same EINTR retry path a real signal
    // would take (CAML_FAULT=net-poll:eintr:...).
    const int rc = fault::before_net_poll("net-poll")
                       ? (errno = EINTR, -1)
                       : ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      log_error() << "serve reactor poll failed; shutting down server";
      break;
    }
    const std::int64_t now = monotonic_us();

    // The stop signal is checked before any connection work: a chatty
    // keep-alive client whose fd is always readable can no longer
    // starve shutdown (it used to win the poll forever). The drain of
    // in-flight connections is bounded by idle_timeout_ms.
    if (!stopping_ && (pfds[0].revents != 0 || draining_.load())) {
      stopping_ = true;
      stop_deadline_us_ = now + static_cast<std::int64_t>(options_.idle_timeout_ms) * 1000;
      listener_.reset();  // refuse new connections at once
    }
    if (pfds[1].revents != 0) {
      char sink[256];
      while (::read(wake_pipe_.rd.get(), sink, sizeof sink) > 0) {
      }
    }
    drain_completions();
    if (!stopping_ && accepting && (pfds[2].revents & POLLIN) != 0) {
      accept_new_connections();
    }
    for (std::size_t p = 0; p < pfd_conn.size(); ++p) {
      const struct pollfd& pfd = pfds[conn_base + p];
      const std::size_t idx = pfd_conn[p];
      if (!conns_[idx]) continue;
      if ((pfd.revents & POLLNVAL) != 0) {
        close_connection(idx);
        continue;
      }
      if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        handle_readable(*conns_[idx]);
      }
      if (!conns_[idx]) continue;
      if ((pfd.revents & POLLOUT) != 0) handle_writable(*conns_[idx]);
    }
    sweep_deadlines(now);

    if (stopping_) {
      if (fully_drained()) break;
      if (now >= stop_deadline_us_) {
        log_warn() << "shutdown drain deadline reached; dropping remaining connections";
        break;
      }
    }
  }
  conns_.clear();
}

}  // namespace caml::serve
