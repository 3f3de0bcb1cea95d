// E8 — Ablation of the paper's two key design choices (DESIGN.md):
//  (a) canonical transistor renaming (Section III.B/C) — replaced by
//      "source order" naming, which is exactly what the paper warns
//      breaks cross-library learning;
//  (b) the transistor switching-activity columns of the CA-matrix.
// Both are evaluated on the cross-technology task (train 28SOI, predict
// C28), where the canonicalization matters most.
#include <iostream>

#include "bench_support.hpp"
#include "flow/report.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/strings.hpp"

#include <algorithm>

namespace {

using namespace caml;

/// Replaces the canonical order with raw netlist order (NMOS first,
/// then PMOS, each in source order) — the "no renaming" ablation.
CharacterizedCell strip_renaming(const CharacterizedCell& cell) {
  CharacterizedCell out = cell;
  CanonicalCell& canon = out.canonical;
  canon.nmos_order.clear();
  canon.pmos_order.clear();
  const Cell& c = cell.source.cell;
  canon.canonical_name.assign(c.num_transistors(), "");
  for (std::size_t ti = 0; ti < c.num_transistors(); ++ti) {
    const auto id = static_cast<TransistorId>(ti);
    if (c.transistor(id).type == MosType::kNmos) {
      canon.canonical_name[ti] = std::string("N").append(std::to_string(canon.nmos_order.size()));
      canon.nmos_order.push_back(id);
    } else {
      canon.canonical_name[ti] = std::string("P").append(std::to_string(canon.pmos_order.size()));
      canon.pmos_order.push_back(id);
    }
  }
  return out;
}

std::vector<CharacterizedCell> strip_all(const std::vector<CharacterizedCell>& cells) {
  std::vector<CharacterizedCell> out;
  out.reserve(cells.size());
  for (const CharacterizedCell& c : cells) out.push_back(strip_renaming(c));
  return out;
}

}  // namespace

int main() {
  bench::print_header("Ablation — canonical renaming and activity columns (28SOI -> C28)");
  Log::set_level(LogLevel::kInfo);

  // Restrict to small/medium cells (<= 16 transistors): the ablation
  // contrast is identical across sizes and this keeps four full
  // cross-library evaluations affordable on one core.
  const auto filter = [](const std::vector<CharacterizedCell>& cells) {
    std::vector<CharacterizedCell> out;
    for (const CharacterizedCell& c : cells) {
      if (c.num_transistors() <= 16) out.push_back(c);
    }
    return out;
  };
  const std::vector<CharacterizedCell> train = filter(bench::suite().soi28);
  const std::vector<CharacterizedCell> eval = filter(bench::suite().c28);
  std::cout << "evaluating " << eval.size() << " C28 cells against " << train.size()
            << " 28SOI training cells (<= 16 transistors)\n";
  const MlOptions base = bench::ml_options();

  TextTable table;
  table.new_row();
  table.cell("configuration");
  table.cell("mean acc (%)");
  table.cell("cells > 97% (%)");

  const auto run = [&](const std::string& label, const std::vector<CharacterizedCell>& tr,
                       const std::vector<CharacterizedCell>& ev, const MlOptions& options) {
    const auto evals = evaluate_cross_library(tr, ev, options);
    const AccuracyDistribution dist = summarize_distribution(evals);
    table.new_row();
    table.cell(label);
    table.cell(100.0 * dist.mean, 2);
    table.cell(100.0 * dist.fraction_above_97, 1);
    std::cout << "  " << label << " done\n";
  };

  run("full method (paper)", train, eval, base);

  MlOptions no_activity = base;
  no_activity.matrix.include_activity = false;
  run("without activity columns", train, eval, no_activity);

  MlOptions with_kind = base;
  with_kind.matrix.include_defect_kind = true;
  run("plus defect-kind column (extra)", train, eval, with_kind);

  const std::vector<CharacterizedCell> train_raw = strip_all(train);
  const std::vector<CharacterizedCell> eval_raw = strip_all(eval);
  run("without canonical renaming", train_raw, eval_raw, base);

  std::cout << '\n';
  table.print(std::cout);
  std::cout << "expected shape: dropping the canonical renaming collapses cross-library "
               "accuracy (the paper's Section III.B claim); dropping activity columns costs "
               "a smaller but visible amount\n";

  // Feature importances of one representative group model: which
  // CA-matrix columns the forest actually uses.
  const GroupMap groups = group_cells(train);
  for (const auto& [key, members] : groups) {
    if (members.size() < 6 || key.num_transistors > 8) continue;
    std::vector<const CharacterizedCell*> cells;
    for (std::size_t m : members) cells.push_back(&train[m]);
    const Dataset data = build_training_set(cells, base);
    RandomForest forest(base.forest);
    forest.fit(data);
    const std::vector<double> importance = forest.feature_importance();
    const CaMatrix sample = build_ca_matrix(cells[0]->source.cell, cells[0]->model,
                                            cells[0]->canonical, cells[0]->sim, base.matrix);
    std::vector<std::size_t> order(importance.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return importance[a] > importance[b]; });
    std::cout << "\ntop CA-matrix columns by Gini importance, group ("
              << key.num_inputs << " in, " << key.num_transistors << " T):\n";
    for (std::size_t i = 0; i < order.size() && i < 10; ++i) {
      std::cout << "  " << sample.column_names()[order[i]] << " : "
                << format_fixed(100.0 * importance[order[i]], 1) << "%\n";
    }
    break;
  }
  return 0;
}
