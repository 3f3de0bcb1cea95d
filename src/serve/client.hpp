#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "util/net.hpp"

namespace caml::serve {

struct ClientOptions {
  /// Unix-domain socket path; when empty, connects to host:port TCP.
  std::string socket_path;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Round-trip deadline per request (send + predict + receive).
  int timeout_ms = 30000;
  int connect_timeout_ms = 5000;
  /// Extra attempts after a lost connection (reset / refused / EOF).
  /// Safe because inference is pure: replaying a request cannot change
  /// server state. Structured server errors other than OVERLOADED are
  /// never retried.
  int retries = 1;
  /// Backoff before attempt k is backoff_ms * k.
  int backoff_ms = 100;
  /// Total sleep budget for retrying OVERLOADED rejects. Retries wait
  /// an exponentially growing, jittered backoff (see
  /// overload_backoff_ms; the server's retry_after_ms hint is the
  /// floor) and persist until the next wait would exceed this budget,
  /// at which point the RemoteError propagates. 0 disables overload
  /// retries entirely.
  int overload_retry_budget_ms = 1000;
  /// Per-request compute deadline shipped to the server (protocol v2):
  /// when > 0, predict requests carry this budget and the server sheds
  /// them with DEADLINE_EXCEEDED instead of computing answers nobody is
  /// waiting for. 0 sends plain v1 frames (compatible with old servers).
  std::uint32_t deadline_ms = 0;
};

/// Backoff before overload retry `attempt` (0-based): exponential from
/// max(hint, base) doubling per attempt, capped at `cap_ms`, then
/// stretched by a deterministic jitter factor in [1, 2) drawn from
/// splitmix64(seed, attempt). The server's hint stays a hard floor —
/// jitter only ever waits longer, never hammers the server earlier than
/// asked. Pure function of its arguments, so retry schedules are
/// reproducible per seed and provably decorrelated across seeds
/// (tests/serve_test.cpp).
int overload_backoff_ms(std::uint64_t seed, int attempt, int hint_ms, int base_ms,
                        int cap_ms);

/// A structured error answered by the server (kError frame). code()
/// distinguishes NO_GROUP (route the cell to conventional generation)
/// from OVERLOADED (back off retry_after_ms and retry) from the rest.
class RemoteError : public Error {
 public:
  explicit RemoteError(const ErrorBody& body)
      : Error(std::string(error_code_name(body.code)) + ": " + body.message),
        code_(body.code),
        retry_after_ms_(body.retry_after_ms) {}

  ErrorCode code() const { return code_; }
  std::uint32_t retry_after_ms() const { return retry_after_ms_; }

 private:
  ErrorCode code_;
  std::uint32_t retry_after_ms_;
};

/// Outcome of one request inside a pipelined predict_cells() batch.
/// Structured per-request errors (NO_GROUP, parse errors, overload) land
/// here instead of throwing, so one bad cell never voids its batchmates.
struct BatchResult {
  std::string payload;             ///< `.camodel` text when ok()
  std::optional<ErrorBody> error;  ///< the structured kError otherwise

  bool ok() const { return !error.has_value(); }
};

/// Blocking client for the caml inference service. Connects lazily on
/// the first request and keeps the connection alive across requests
/// (the server closes idle connections; the client reconnects
/// transparently, with one retry + backoff on connection loss).
/// Not thread-safe: use one Client per thread.
class Client {
 public:
  explicit Client(ClientOptions options);

  /// Predicts the CA model of the single .SUBCKT in `netlist_text`.
  /// Returns the `.camodel` text. Throws RemoteError on structured
  /// server errors, caml::Error on transport failure.
  std::string predict_cell(const std::string& netlist_text);

  /// Pipelined batch predict: keeps up to `window` requests in flight on
  /// one connection and reads responses in request order (the server
  /// guarantees in-order delivery per connection, and coalesces the
  /// pipelined requests into cross-connection compute batches). Results
  /// come back in input order; per-request failures are returned, not
  /// thrown. Throws caml::Error only on transport failure, which voids
  /// the whole batch (no mid-batch replay — callers resubmit).
  std::vector<BatchResult> predict_cells(const std::vector<std::string>& netlists,
                                         std::size_t window = 64);

  /// Liveness probe (kPing/kPong round trip).
  void ping();

  /// Fetches the server's unified observability snapshot (kStats): the
  /// process-wide metrics registry rendered as Prometheus-compatible
  /// text exposition.
  std::string stats();

  void close() { fd_.reset(); }
  bool connected() const { return fd_.valid(); }

 private:
  void ensure_connected();
  Frame roundtrip(Frame request, MsgType expected_type);
  Frame make_predict_frame(const std::string& netlist_text);

  ClientOptions options_;
  Fd fd_;
  std::uint64_t next_id_ = 1;
  /// Seed for the overload backoff jitter, derived per client from the
  /// pid and a process-local counter, so a fleet of clients restarted
  /// together decorrelates instead of re-stampeding the server in
  /// lockstep.
  std::uint64_t retry_seed_;
};

}  // namespace caml::serve
