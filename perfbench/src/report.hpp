#pragma once

// Run options, the result every workload returns, and the output
// format: a header line describing the build and host, then one JSON
// object as the last line of stdout.

#include <cstdint>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "flow/characterize.hpp"
#include "flow/ml_flow.hpp"
#include "libgen/builder.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Seconds-long miniature of every workload (schema self-test only;
  /// its numbers are not comparable with a full run).
  bool smoke = false;
  std::size_t jobs = 1;             ///< in-process worker threads (= nproc)
  std::string work_dir;             ///< working directory of this run
  std::string caml_binary;          ///< the `caml` CLI built with the harness
  double serve_rate = 0.0;          ///< serve_mixed open-loop offered rate, req/s
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  /// Records `n` attempted operations of which `bad` failed.
  void count(std::uint64_t n, std::uint64_t bad) {
    attempted += n;
    failed += bad;
    if (bad != 0) correct = false;
  }
};

/// The one JSON line: end-to-end metrics, or the per-layer ones when
/// `traced`.
std::string result_json(const Result& result, bool traced);

/// Peak resident set of this process, in MB.
double self_peak_rss_mb();

/// The three-library suite the workloads run on. In smoke mode only a
/// few small functions are kept.
caml::BenchmarkSuite make_suite(bool smoke);

/// Ground-truth characterization for the learning workloads: the
/// paper's defect universe, exhaustive two-pattern stimuli up to 3
/// inputs (the repository's default bench profile).
caml::CharacterizeOptions truth_options(std::size_t jobs);

/// Forest settings of every trained store: 8 trees, at most 30k
/// distinct rows per tree, so training 28SOI takes seconds.
caml::MlOptions forest_options(std::size_t jobs);

/// Every metric name the traced run reports, so each traced run carries
/// the full per-layer set; layers a workload never calls read 0.
void fill_missing_layers(Result& result);

/// Workloads.
Result run_characterize(const RunOptions& options, Ledger& ledger);
Result run_learn(const RunOptions& options, Ledger& ledger);
Result run_serve(const RunOptions& options, Ledger& ledger);

}  // namespace perfbench
