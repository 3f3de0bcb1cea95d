// Workload `learn`: the learning-based flow on ground truth computed in
// set-up. Forest training on 28SOI, prediction of every C40 and C28
// cell whose group has a forest, and the budgeted active-learning loop
// 28SOI -> C28. The ml layer does most of the work, with camatrix
// matrix builds; simulation is limited to golden sweeps and the cells
// the active loop acquires.

#include <algorithm>
#include <iostream>

#include "active/learner.hpp"
#include "flow/characterize.hpp"
#include "flow/grouping.hpp"
#include "flow/model_store.hpp"
#include "report.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace caml;

constexpr int kSetupRepeats = 3;
/// Modelled SPICE seconds (hybrid CostModel) the active loop may spend.
constexpr double kActiveBudgetSeconds = 20000.0;
/// Mean cross-library prediction accuracy below which a pass is wrong
/// (DESIGN.md section 4: E2/E3 stay high on average even with the C28
/// low-accuracy tail).
constexpr double kAccuracyFloor = 0.94;

struct Libraries {
  std::vector<CharacterizedCell> soi28, c40, c28;
};

Libraries set_up(const RunOptions& options) {
  BenchmarkSuite suite = make_suite(options.smoke);
  SeededRng rng(options.seed);
  for (Library* lib : {&suite.soi28, &suite.c40, &suite.c28}) shuffle(lib->cells, rng);
  const CharacterizeOptions ch = truth_options(options.jobs);
  return Libraries{characterize_library(suite.soi28, ch), characterize_library(suite.c40, ch),
                   characterize_library(suite.c28, ch)};
}

bool same_shape(const CaModel& truth, const CaModel& predicted) {
  if (truth.stimuli.size() != predicted.stimuli.size() ||
      truth.defects.size() != predicted.defects.size()) {
    return false;
  }
  for (std::size_t d = 0; d < truth.defects.size(); ++d) {
    if (predicted.defects[d].detection.size() != truth.defects[d].detection.size()) return false;
  }
  return true;
}

struct Prediction {
  CaModel model;
  double ms = 0.0;
};

}  // namespace

Result run_learn(const RunOptions& options, Ledger& ledger) {
  Result result;
  std::vector<double> setup_s;
  Libraries libs;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    libs = set_up(options);
    setup_s.push_back(seconds_since(t0));
  }
  const MlOptions ml = forest_options(options.jobs);
  std::cerr << "perfbench: learn set-up " << median(setup_s) << " s\n";

  // Train.
  Clock::time_point t0 = Clock::now();
  const GroupModelStore store = GroupModelStore::train(libs.soi28, ml);
  const double train_s = seconds_since(t0);
  result.count(1, 0);

  // Predict every target cell whose group has a forest; repeat passes
  // until a third of the run budget is used.
  std::vector<const CharacterizedCell*> targets;
  for (const auto* lib : {&libs.c40, &libs.c28}) {
    for (const CharacterizedCell& cell : *lib) {
      if (store.has_group(GroupKey{cell.num_inputs(), cell.num_transistors()})) {
        targets.push_back(&cell);
      }
    }
  }
  std::vector<double> pass_s, cell_ms, accuracies;
  std::vector<Prediction> first_pass;
  double predict_total = 0.0;
  do {
    t0 = Clock::now();
    std::vector<Prediction> predictions =
        parallel_map(targets, options.jobs, [&](const CharacterizedCell* cell) {
          const Clock::time_point c0 = Clock::now();
          Prediction p;
          p.model = store.predict(cell->source.cell, cell->canonical, cell->model.policy,
                                  cell->sim);
          p.ms = seconds_since(c0) * 1e3;
          return p;
        });
    pass_s.push_back(seconds_since(t0));
    predict_total += pass_s.back();
    std::uint64_t bad = 0;
    double acc_sum = 0.0;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      cell_ms.push_back(predictions[i].ms);
      if (!same_shape(targets[i]->model, predictions[i].model)) {
        ++bad;
        continue;
      }
      const double acc = ca_model_agreement(targets[i]->model, predictions[i].model);
      acc_sum += acc;
      if (first_pass.empty()) accuracies.push_back(acc);
    }
    const double mean_acc = acc_sum / static_cast<double>(targets.size());
    if (mean_acc < kAccuracyFloor) {
      std::cerr << "perfbench: predict mean accuracy " << mean_acc << " below the floor "
                << kAccuracyFloor << '\n';
      bad = targets.size();
    }
    result.count(targets.size(), bad);
    if (first_pass.empty()) first_pass = std::move(predictions);
  } while (predict_total < options.seconds / 3.0);
  double predict_acc = 0.0;
  for (const double a : accuracies) predict_acc += a;
  predict_acc /= static_cast<double>(std::max<std::size_t>(accuracies.size(), 1));

  // Active learning 28SOI -> C28 at a fixed modelled-seconds budget.
  active::ActiveOptions active_options;
  active_options.base.ml = ml;
  active_options.sim_budget = kActiveBudgetSeconds;
  active_options.budget_unit = active::BudgetUnit::kSeconds;
  active_options.jobs = options.jobs;
  t0 = Clock::now();
  const active::ActiveReport report = active::run_active_flow(libs.soi28, libs.c28, active_options);
  const double active_s = seconds_since(t0);
  const bool active_ok = report.hybrid.outcomes.size() == libs.c28.size() &&
                         report.spent <= kActiveBudgetSeconds;
  result.count(libs.c28.size(), active_ok ? 0 : libs.c28.size());
  double active_acc = 0.0;
  for (const HybridCellOutcome& o : report.hybrid.outcomes) active_acc += o.accuracy;
  active_acc /= static_cast<double>(std::max<std::size_t>(report.hybrid.outcomes.size(), 1));
  std::cerr << "perfbench: learn train " << train_s << " s, predict pass " << median(pass_s)
            << " s (" << targets.size() << " cells, acc " << predict_acc << "), active "
            << active_s << " s (spent " << report.spent << " of " << kActiveBudgetSeconds
            << ", acquired " << report.acquired << ", acc " << active_acc << ")\n";

  const double models = static_cast<double>(targets.size() + libs.c28.size());
  const double predict_s = median(pass_s);
  result.e2e("setup_s", median(setup_s), "s");
  result.e2e("peak_rss_mb", self_peak_rss_mb(), "MB");
  result.e2e("throughput_per_s", models / (train_s + predict_s + active_s), "1/s");
  result.e2e("p50_ms", quantile(cell_ms, 0.5), "ms");
  result.e2e("p99_ms", quantile(cell_ms, 0.99), "ms");
  result.e2e("accuracy",
             (predict_acc * static_cast<double>(targets.size()) +
              active_acc * static_cast<double>(libs.c28.size())) /
                 models,
             "ratio");

  if (!ledger.enabled()) return result;

  // Traced train: GroupModelStore::train split into its per-group calls.
  t0 = Clock::now();
  std::vector<double> fit_s;
  double train_rows = 0.0;
  {
    const Ledger::Scope root = ledger.span("flow.train");
    for (const auto& [key, members] : group_cells(libs.soi28)) {
      std::vector<const CharacterizedCell*> cells;
      for (const std::size_t m : members) cells.push_back(&libs.soi28[m]);
      const Dataset data =
          in_span(ledger, "camatrix.train_matrix", [&] { return build_training_set(cells, ml); });
      train_rows += static_cast<double>(data.num_rows());
      const Clock::time_point f0 = Clock::now();
      const Ledger::Scope fit = ledger.span("ml.fit");
      RandomForest forest(ml.forest);
      forest.fit(data);
      fit_s.push_back(seconds_since(f0));
    }
  }
  const double traced_train_s = seconds_since(t0);

  // Traced predict: prepare -> classify -> finish per cell, checked
  // against the untraced predictions.
  std::vector<double> busy(targets.size(), 0.0);
  std::vector<std::uint8_t> same(targets.size(), 0);
  std::vector<double> rows(targets.size(), 0.0);
  t0 = Clock::now();
  parallel_for(targets.size(), options.jobs, [&](std::size_t i) {
    const Clock::time_point c0 = Clock::now();
    const Ledger::Scope cell_span = ledger.span("flow.predict_cell");
    const CharacterizedCell& cell = *targets[i];
    const Classifier* classifier =
        store.classifier_for(GroupKey{cell.num_inputs(), cell.num_transistors()});
    std::vector<Defect> defects =
        in_span(ledger, "defect.enumerate", [&] { return enumerate_defects(cell.source.cell); });
    PreparedPrediction prepared = in_span(ledger, "camatrix.prepare", [&] {
      return prepare_prediction(cell.source.cell, cell.canonical, cell.model.policy, cell.sim,
                                store.matrix_options(), std::move(defects));
    });
    const CaMatrix& matrix = prepared.matrix;
    rows[i] = static_cast<double>(matrix.num_rows());
    const std::vector<std::uint8_t> labels = in_span(ledger, "ml.classify", [&] {
      return matrix.num_rows() == 0
                 ? std::vector<std::uint8_t>{}
                 : classifier->predict_batch(matrix.features().data(), matrix.num_rows(),
                                             matrix.num_features());
    });
    const CaModel model = in_span(ledger, "camodel.finish", [&] {
      return finish_prediction(std::move(prepared), labels.data());
    });
    same[i] = ca_model_agreement(first_pass[i].model, model) == 1.0 ? 1 : 0;
    busy[i] = seconds_since(c0);
  });
  const double traced_predict_s = seconds_since(t0);
  const std::size_t mismatched = static_cast<std::size_t>(std::count(same.begin(), same.end(), 0));
  result.count(targets.size(), mismatched);

  double predict_busy = 0.0, rows_total = 0.0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    predict_busy += busy[i];
    rows_total += rows[i];
  }
  const double fit_total = ledger.total_seconds("ml.fit");
  const double classify_s = ledger.total_seconds("ml.classify");
  const double capacity = traced_train_s + traced_predict_s * static_cast<double>(options.jobs);
  const double layers = ledger.total_seconds("camatrix.train_matrix") + fit_total +
                        ledger.total_seconds("defect.enumerate") +
                        ledger.total_seconds("camatrix.prepare") + classify_s +
                        ledger.total_seconds("camodel.finish");
  const double idle = traced_predict_s * static_cast<double>(options.jobs) - predict_busy;
  const double untraced = train_s + predict_s;

  result.layer("train_s", train_s, "s");
  result.layer("predict.cells_per_s", static_cast<double>(targets.size()) / predict_s, "1/s");
  result.layer("predict.mean_acc", predict_acc, "ratio");
  result.layer("active_s", active_s, "s");
  result.layer("active.mean_acc", active_acc, "ratio");
  result.layer("camatrix.train_matrix_s", ledger.total_seconds("camatrix.train_matrix"), "s");
  result.layer("ml.fit_s", fit_total, "s");
  result.layer("ml.fit_max_group_s", *std::max_element(fit_s.begin(), fit_s.end()), "s");
  result.layer("ml.train_rows", train_rows, "count");
  result.layer("defect.enumerate_s", ledger.total_seconds("defect.enumerate"), "s");
  result.layer("camatrix.prepare_s", ledger.total_seconds("camatrix.prepare"), "s");
  result.layer("ml.classify_s", classify_s, "s");
  result.layer("ml.rows_classified", rows_total, "count");
  result.layer("ml.rows_per_s", rows_total / classify_s, "1/s");
  result.layer("camodel.finish_s", ledger.total_seconds("camodel.finish"), "s");
  result.layer("active.rounds", static_cast<double>(report.rounds.size()), "count");
  result.layer("active.acquired", static_cast<double>(report.acquired), "count");
  result.layer("active.sim_spent", report.spent, "model_s");
  result.layer("latency.samples", static_cast<double>(cell_ms.size()), "count");
  result.layer("trace.overhead_share",
               (traced_train_s + traced_predict_s - untraced) / untraced, "ratio");
  result.layer("unattributed_share", 1.0 - (layers + idle) / capacity, "ratio");
  return result;
}

}  // namespace perfbench
