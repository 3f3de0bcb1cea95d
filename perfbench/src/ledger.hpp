#pragma once

// Timing helpers and the traced run's span ledger.
//
// A Ledger records spans around the public calls the benchmark makes
// into each layer of the program (layer name, start, end, parent span,
// thread). Spans live in memory and are written out as Chrome
// trace-event JSON when the run ends. A disabled ledger records
// nothing: the untraced run that measures the end-to-end metrics pays
// one branch per span.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

/// Quantile by linear interpolation between closest ranks (q in [0, 1]).
/// Returns 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// splitmix64: the benchmark's own seeded stream, so inputs depend only
/// on the workload seed and never on the standard library's algorithms.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform index in [0, n).
  std::size_t index(std::size_t n);

 private:
  std::uint64_t state_;
};

/// Fisher-Yates permutation driven by SeededRng.
template <class T>
void shuffle(std::vector<T>& items, SeededRng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const std::size_t j = rng.index(i);
    std::swap(items[i - 1], items[j]);
  }
}

struct SpanRecord {
  std::string layer;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span on the same thread, -1 = none
  std::uint32_t thread = 0;
};

class Ledger {
 public:
  explicit Ledger(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span; records on destruction. Inert when the ledger is off.
  class Scope {
   public:
    Scope(Ledger* ledger, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger* ledger_;
    int index_ = -1;
  };

  Scope span(const char* layer) { return Scope(enabled_ ? this : nullptr, layer); }

  /// Self time per layer in seconds: each span's duration minus the
  /// part covered by its child spans.
  std::map<std::string, double> self_seconds() const;
  /// Sum of span durations of one layer, in seconds.
  double total_seconds(const std::string& layer) const;

  /// Writes every span as Chrome trace-event JSON ("X" events, µs).
  void write_chrome_trace(const std::string& path) const;

 private:
  int open(const char* layer);
  void close(int index);

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  ///< guarded by mu_
};

/// Runs f inside a span of `layer` and returns its result.
template <class F>
auto in_span(Ledger& ledger, const char* layer, F&& f) {
  const Ledger::Scope scope = ledger.span(layer);
  return std::forward<F>(f)();
}

}  // namespace perfbench
