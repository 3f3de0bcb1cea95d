#include "ledger.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

std::uint64_t SeededRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SeededRng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::size_t SeededRng::index(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

namespace {

std::uint32_t this_thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

/// Innermost open span per thread, so a new span knows its parent.
thread_local int t_open_span = -1;

}  // namespace

Ledger::Scope::Scope(Ledger* ledger, const char* layer) : ledger_(ledger) {
  if (ledger_ != nullptr) index_ = ledger_->open(layer);
}

Ledger::Scope::~Scope() {
  if (ledger_ != nullptr) ledger_->close(index_);
}

int Ledger::open(const char* layer) {
  SpanRecord span;
  span.layer = layer;
  span.parent = t_open_span;
  span.thread = this_thread_index();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
                      .count();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  t_open_span = static_cast<int>(spans_.size() - 1);
  return t_open_span;
}

void Ledger::close(int index) {
  const std::int64_t end =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  const std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = end;
  t_open_span = span.parent;
}

std::map<std::string, double> Ledger::self_seconds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double ns = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) - child_ns[i];
    self[spans_[i].layer] += ns * 1e-9;
  }
  return self;
}

double Ledger::total_seconds(const std::string& layer) const {
  const std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const SpanRecord& span : spans_) {
    if (span.layer == layer) total += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  return total;
}

void Ledger::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  const std::lock_guard<std::mutex> lock(mu_);
  os << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    os << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << s.thread << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
