#include "serve/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

namespace caml::serve {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Cap on one overload backoff sleep, before jitter.
constexpr int kOverloadBackoffCapMs = 2000;

std::uint64_t default_retry_seed() {
  static std::atomic<std::uint64_t> counter{0};
  return splitmix64((static_cast<std::uint64_t>(::getpid()) << 20) ^
                    counter.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

int overload_backoff_ms(std::uint64_t seed, int attempt, int hint_ms, int base_ms,
                        int cap_ms) {
  const std::int64_t floor_ms = std::max<std::int64_t>({hint_ms, base_ms, 1});
  const int shift = std::min(attempt, 20);  // 2^20x is past any sane cap
  std::int64_t wait = std::min<std::int64_t>(std::max(cap_ms, 1), floor_ms << shift);
  wait = std::max<std::int64_t>(wait, hint_ms);  // the hint floors even past the cap
  // Jitter factor in [1, 2): a 53-bit mantissa drawn deterministically
  // from (seed, attempt) — two clients with different seeds spread out
  // instead of re-stampeding on the same schedule.
  const double jitter =
      static_cast<double>(splitmix64(seed ^ (0x5CEDB00Full + static_cast<std::uint64_t>(
                                                                 attempt))) >>
                          11) *
      0x1.0p-53;
  return static_cast<int>(wait + static_cast<std::int64_t>(static_cast<double>(wait) *
                                                           jitter));
}

Client::Client(ClientOptions options)
    : options_(std::move(options)), retry_seed_(default_retry_seed()) {}

void Client::ensure_connected() {
  if (fd_.valid()) return;
  if (!options_.socket_path.empty()) {
    fd_ = connect_unix(options_.socket_path, options_.connect_timeout_ms);
  } else {
    fd_ = connect_tcp(options_.host, options_.port, options_.connect_timeout_ms);
  }
}

Frame Client::make_predict_frame(const std::string& netlist_text) {
  Frame request;
  request.type = MsgType::kPredictCell;
  request.request_id = next_id_++;
  if (options_.deadline_ms > 0) {
    request.version = kProtocolVersionDeadline;
    request.payload = encode_predict_payload(options_.deadline_ms, netlist_text);
  } else {
    // No deadline: plain v1 frame, compatible with pre-deadline servers.
    request.payload = netlist_text;
  }
  return request;
}

Frame Client::roundtrip(Frame request, MsgType expected_type) {
  int overload_wait_spent_ms = 0;
  int overload_attempt = 0;
  for (int attempt = 0;; ++attempt) {
    try {
      ensure_connected();
      write_frame(fd_.get(), request, options_.timeout_ms);
      std::optional<Frame> response = read_frame(fd_.get(), options_.timeout_ms);
      if (!response) {
        errno = 0;
        throw Error("connection lost: server closed the connection");
      }
      if (response->type == MsgType::kError) {
        // Backpressure rejects are written before the server reads the
        // request, so they carry id 0 — still an answer to us (the
        // connection serves exactly one in-flight request).
        if (response->request_id != request.request_id && response->request_id != 0) {
          throw Error("response id " + std::to_string(response->request_id) +
                      " does not match request id " + std::to_string(request.request_id));
        }
        throw RemoteError(decode_error(response->payload));
      }
      if (response->request_id != request.request_id) {
        throw Error("response id " + std::to_string(response->request_id) +
                    " does not match request id " + std::to_string(request.request_id));
      }
      if (response->type != expected_type) {
        throw Error("unexpected response type " +
                    std::to_string(static_cast<unsigned>(response->type)));
      }
      return std::move(*response);
    } catch (const RemoteError& e) {
      if (e.code() != ErrorCode::kOverloaded) throw;
      // The server may close the connection after the reject; reconnect
      // on the next attempt. Back off exponentially with deterministic
      // jitter (the server's retry_after_ms hint is the floor), but
      // never sleep past the total overload budget — a saturated server
      // should turn into a caller-visible error, not an unbounded stall.
      fd_.reset();
      const int wait =
          overload_backoff_ms(retry_seed_, overload_attempt++,
                              static_cast<int>(e.retry_after_ms()), options_.backoff_ms,
                              kOverloadBackoffCapMs);
      if (overload_wait_spent_ms + wait > options_.overload_retry_budget_ms) throw;
      overload_wait_spent_ms += wait;
      std::this_thread::sleep_for(std::chrono::milliseconds(wait));
    } catch (const Error& e) {
      fd_.reset();
      if (attempt >= options_.retries || !is_connection_lost_error(e.what())) throw;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<long>(options_.backoff_ms) * (attempt + 1)));
    }
  }
}

std::string Client::predict_cell(const std::string& netlist_text) {
  return roundtrip(make_predict_frame(netlist_text), MsgType::kPredictOk).payload;
}

std::vector<BatchResult> Client::predict_cells(const std::vector<std::string>& netlists,
                                               std::size_t window) {
  std::vector<BatchResult> results(netlists.size());
  if (netlists.empty()) return results;
  if (window == 0) window = 1;
  ensure_connected();
  const std::uint64_t first_id = next_id_;
  std::size_t sent = 0;
  std::size_t received = 0;
  try {
    while (received < netlists.size()) {
      // Keep the window full before reading: the server reads request
      // frames continuously (its reactor never blocks on our pace), so a
      // blocking write here can only wait on the network, not deadlock.
      while (sent < netlists.size() && sent - received < window) {
        write_frame(fd_.get(), make_predict_frame(netlists[sent]), options_.timeout_ms);
        ++sent;
      }
      std::optional<Frame> response = read_frame(fd_.get(), options_.timeout_ms);
      if (!response) {
        errno = 0;
        throw Error("connection lost: server closed the connection mid-batch");
      }
      const std::uint64_t want = first_id + received;
      if (response->request_id != want) {
        throw Error("pipelined response id " + std::to_string(response->request_id) +
                    " arrived out of order (expected " + std::to_string(want) + ")");
      }
      BatchResult& result = results[received];
      if (response->type == MsgType::kError) {
        result.error = decode_error(response->payload);
      } else if (response->type == MsgType::kPredictOk) {
        result.payload = std::move(response->payload);
      } else {
        throw Error("unexpected response type " +
                    std::to_string(static_cast<unsigned>(response->type)));
      }
      ++received;
    }
  } catch (...) {
    fd_.reset();
    throw;
  }
  return results;
}

void Client::ping() {
  Frame request;
  request.type = MsgType::kPing;
  request.request_id = next_id_++;
  roundtrip(std::move(request), MsgType::kPong);
}

std::string Client::stats() {
  Frame request;
  request.type = MsgType::kStats;
  request.request_id = next_id_++;
  return roundtrip(std::move(request), MsgType::kStatsOk).payload;
}

}  // namespace caml::serve
