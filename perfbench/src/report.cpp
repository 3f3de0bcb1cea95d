#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

namespace perfbench {

namespace {

/// Every per-layer metric with its unit, in output order. Kept in step
/// with BENCHMARK.json's per_layer list (the schema test checks it).
const std::vector<std::pair<const char*, const char*>>& layer_catalog() {
  static const std::vector<std::pair<const char*, const char*>> catalog = {
      // characterize
      {"characterize.cells_per_s", "1/s"},
      {"camodel.generate_s", "s"},
      {"sim.defect_sims", "count"},
      {"sim.defect_sims_per_s", "1/s"},
      {"defect.enumerate_s", "s"},
      {"camatrix.canonicalize_s", "s"},
      {"util.pool_efficiency", "ratio"},
      {"characterize.cell_p99_ms", "ms"},
      {"characterize.cell_max_ms", "ms"},
      // learn
      {"train_s", "s"},
      {"predict.cells_per_s", "1/s"},
      {"predict.mean_acc", "ratio"},
      {"active_s", "s"},
      {"active.mean_acc", "ratio"},
      {"camatrix.train_matrix_s", "s"},
      {"ml.fit_s", "s"},
      {"ml.fit_max_group_s", "s"},
      {"ml.train_rows", "count"},
      {"camatrix.prepare_s", "s"},
      {"ml.classify_s", "s"},
      {"ml.rows_classified", "count"},
      {"ml.rows_per_s", "1/s"},
      {"camodel.finish_s", "s"},
      {"active.rounds", "count"},
      {"active.acquired", "count"},
      {"active.sim_spent", "model_s"},
      // serve
      {"serve.p50_ms", "ms"},
      {"serve.p99_ms", "ms"},
      {"serve.sat_rps", "1/s"},
      {"serve.codec_us", "us"},
      {"netlist.parse_us", "us"},
      {"camatrix.canonicalize_us", "us"},
      {"camodel.serialize_us", "us"},
      {"camatrix.prepare_us", "us"},
      {"store.classify_us", "us"},
      {"serve.compute_us", "us"},
      {"serve.transport_ms", "ms"},
      {"serve.batch_mean", "count"},
      {"serve.queue_sojourn_p99_ms", "ms"},
      {"serve.shed", "count"},
      {"serve.rejected", "count"},
      {"serve.gen_lag_ms", "ms"},
      {"store.open_ms", "ms"},
      // every workload
      {"latency.samples", "count"},
      {"trace.overhead_share", "ratio"},
      {"unattributed_share", "ratio"},
  };
  return catalog;
}

std::string format_number(double v) {
  if (!std::isfinite(v)) v = 0.0;  // JSON has no inf/nan; callers never produce them
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void fill_missing_layers(Result& result) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : layer_catalog()) {
    const auto it = std::find_if(result.per_layer.begin(), result.per_layer.end(),
                                 [&](const Metric& m) { return m.name == name; });
    ordered.push_back(it != result.per_layer.end() ? *it : Metric{name, 0.0, unit});
  }
  result.per_layer = std::move(ordered);
}

std::string result_json(const Result& result, bool traced) {
  std::ostringstream os;
  os << "{\"correct\": " << (result.correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
     << ", \"metrics\": {";
  const std::vector<Metric>& metrics = traced ? result.per_layer : result.end_to_end;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << '"' << metrics[i].name << "\": {\"value\": "
       << format_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

caml::BenchmarkSuite make_suite(bool smoke) {
  caml::BenchmarkSuite suite = caml::build_benchmark_suite();
  if (smoke) {
    const std::set<std::string> keep = {"INV", "NAND2", "NOR2"};
    for (caml::Library* lib : {&suite.soi28, &suite.c40, &suite.c28}) {
      std::erase_if(lib->cells,
                    [&](const caml::LibraryCell& c) { return keep.count(c.function) == 0; });
    }
  }
  return suite;
}

caml::CharacterizeOptions truth_options(std::size_t jobs) {
  caml::CharacterizeOptions options;
  options.policy.exhaustive_max_inputs = 3;
  options.jobs = jobs;
  return options;
}

caml::MlOptions forest_options(std::size_t jobs) {
  caml::MlOptions ml;
  ml.forest.num_trees = 4;
  ml.forest.max_samples_per_tree = 30000;
  ml.forest.jobs = jobs;
  return ml;
}

}  // namespace perfbench
