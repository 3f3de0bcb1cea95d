// E12 — accuracy vs. simulation budget for the active-learning flow
// (docs/ACTIVE_LEARNING.md). The structural baseline simulates every
// structurally new cell, which fixes a reference spend S; the active
// policy is then run at fractions of S and must buy at least the same
// model quality once it can afford the same spend.
//
// Output: one `RESULT active_budget key=value ...` line per flow run,
// plus a human-readable summary. Exit status 1 if
//   * the active policy at the full budget falls more than 0.002 mean
//     accuracy below the structural baseline,
//   * any active run spends more than its budget, or
//   * a larger budget buys fewer acquisitions than a smaller one.
//
// Deterministic: fixed builder seeds, exhaustive stimuli, and the
// active loop's by-construction determinism (fixed forest seeds, any
// jobs value).
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "active/learner.hpp"
#include "bench_support.hpp"
#include "libgen/builder.hpp"
#include "libgen/technology.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace {

using namespace caml;

/// Mean model accuracy across ALL targets: simulated/acquired cells
/// count as 1.0 (their models are exact by construction), predicted
/// cells contribute their scored agreement with ground truth.
double mean_accuracy(const HybridReport& report) {
  if (report.outcomes.empty()) return 0.0;
  double sum = 0.0;
  for (const HybridCellOutcome& o : report.outcomes) sum += o.accuracy;
  return sum / static_cast<double>(report.outcomes.size());
}

/// Fraction of targets with accuracy >= 0.98 (the EXPERIMENTS.md
/// quality bar, counting exact simulated models).
double accuracy98(const HybridReport& report) {
  if (report.outcomes.empty()) return 0.0;
  std::size_t n = 0;
  for (const HybridCellOutcome& o : report.outcomes) n += o.accuracy >= 0.98;
  return static_cast<double>(n) / static_cast<double>(report.outcomes.size());
}

void result_line(const std::string& policy, double frac, double budget, double spent,
                 std::size_t acquired, const HybridReport& report) {
  std::cout << "RESULT active_budget policy=" << policy
            << " budget_frac=" << format_fixed(frac, 2)
            << " budget_s=" << format_fixed(budget, 1) << " spent_s=" << format_fixed(spent, 1)
            << " acquired=" << acquired << " targets=" << report.outcomes.size()
            << " mean_acc=" << format_fixed(mean_accuracy(report), 4)
            << " acc98=" << format_fixed(accuracy98(report), 4) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) quick |= std::strcmp(argv[i], "--quick") == 0;

  bench::print_header("E12 — accuracy vs. simulation budget (structural vs. active routing)");
  Log::set_level(LogLevel::kWarn);

  // Compact two-technology corpus: the 28SOI training slice covers the
  // AND/OR/AOI families; the C28 target slice re-uses those shapes and
  // adds XOR/MUX/MAJ functions the training set has never seen (the
  // cells the budget has to buy).
  std::vector<std::string> train_funcs = {"INV",  "NAND2", "NAND3", "NOR2",  "NOR3",
                                          "AND2", "OR2",   "AOI21", "OAI21", "AOI22"};
  std::vector<std::string> target_funcs = {"NAND2", "NAND3", "NOR2",  "NOR3", "AND2",
                                           "OR2",   "AOI21", "OAI21", "AOI22"};
  std::vector<std::string> unseen_funcs = {"XOR2", "XNOR2", "MUX2", "MAJ3", "OAI22", "AND3"};
  if (quick) {
    train_funcs = {"INV", "NAND2", "NOR2", "AOI21"};
    target_funcs = {"NAND2", "NOR2", "AOI21"};
    unseen_funcs = {"XOR2", "MUX2"};
  }
  target_funcs.insert(target_funcs.end(), unseen_funcs.begin(), unseen_funcs.end());

  LibraryComposition comp;
  comp.drives = {{1, StructureVariant::kWide}, {2, StructureVariant::kMerged}};
  comp.flavors = {{"", 1.0}};

  comp.functions = train_funcs;
  std::cerr << "[bench] characterizing the 28SOI training slice...\n";
  const std::vector<CharacterizedCell> training =
      characterize_library(build_library(technology_28soi(), comp), bench::characterize_options());
  comp.functions = target_funcs;
  std::cerr << "[bench] characterizing the C28 target slice...\n";
  const std::vector<CharacterizedCell> targets =
      characterize_library(build_library(technology_c28(), comp), bench::characterize_options());
  std::cout << "corpus: " << training.size() << " training cells, " << targets.size()
            << " targets (" << unseen_funcs.size() << " unseen functions)\n\n";

  // Structural baseline: new structures are simulated, the rest
  // predicted. Its conventional spend on those simulations is the
  // reference budget S.
  active::ActiveOptions structural;
  structural.base.ml = bench::ml_options();
  structural.base.routing = RoutingPolicy::kStructural;
  const active::ActiveReport structural_report =
      active::run_active_flow(training, targets, structural);
  const HybridReport& base = structural_report.hybrid;
  double reference_spend = 0.0;
  for (const HybridCellOutcome& o : base.outcomes) {
    if (!o.routed_to_ml) reference_spend += o.conventional_seconds;
  }
  const std::size_t base_simulated = base.outcomes.size() - base.count_routed_to_ml();
  result_line("structural", 1.0, reference_spend, reference_spend, base_simulated, base);

  const double fractions[] = {0.25, 0.5, 1.0};  // ascending: acquisitions must not fall
  double active_full_acc = 0.0;
  bool within_budget = true;
  bool monotone = true;
  std::size_t prev_acquired = 0;
  for (const double frac : fractions) {
    active::ActiveOptions options;
    options.base.ml = bench::ml_options();
    options.budget_unit = active::BudgetUnit::kSeconds;
    options.sim_budget = frac * reference_spend;
    options.max_rounds = quick ? 3 : 6;
    const active::ActiveReport report = active::run_active_flow(training, targets, options);
    result_line("active", frac, report.budget, report.spent, report.acquired, report.hybrid);
    if (frac == 1.0) active_full_acc = mean_accuracy(report.hybrid);
    within_budget = within_budget && report.spent <= report.budget + 1e-6;
    monotone = monotone && report.acquired >= prev_acquired;
    prev_acquired = report.acquired;
  }

  const double base_acc = mean_accuracy(base);
  std::cout << "\nstructural baseline spend S = " << format_fixed(reference_spend, 1)
            << " modeled seconds (" << base_simulated << " simulated cells)\n";
  std::cout << "mean accuracy: structural " << format_fixed(base_acc, 4) << " vs active@1.0S "
            << format_fixed(active_full_acc, 4) << "\n";
  int status = 0;
  if (active_full_acc + 0.002 < base_acc) {
    std::cerr << "FAIL: active routing at the full budget lost more than 0.002 mean accuracy\n";
    status = 1;
  }
  if (!within_budget) {
    std::cerr << "FAIL: an active run spent more than its budget\n";
    status = 1;
  }
  if (!monotone) {
    std::cerr << "FAIL: a larger budget bought fewer acquisitions\n";
    status = 1;
  }
  if (status == 0) {
    std::cout << "PASS: active routing at equal budget matches the structural baseline; "
                 "every run stays within budget; acquisitions grow with the budget\n";
  }
  return status;
}
