// Hybrid flow demo (paper Fig. 7): route the cells of a target library
// through structural analysis — ML inference for cells whose structure
// is known, conventional simulation (with feedback into the training
// pool) for the rest — and report the time accounting.
//
//   $ ./hybrid_flow_demo
#include <iostream>

#include "active/learner.hpp"
#include "util/strings.hpp"

int main() {
  using namespace caml;

  CharacterizeOptions copt;
  copt.policy.exhaustive_max_inputs = 3;

  // Training library: a 28SOI slice.
  LibraryComposition train_comp;
  train_comp.functions = {"INV", "NAND2", "NOR2", "NAND3", "AOI21", "OAI21"};
  train_comp.drives = {{1, StructureVariant::kWide}, {2, StructureVariant::kMerged}};
  train_comp.flavors = {{"", 1.0}, {"LP", 0.85}};
  std::cout << "characterizing the 28SOI training library...\n";
  const std::vector<CharacterizedCell> train =
      characterize_library(build_library(technology_28soi(), train_comp), copt);

  // Target library: C40 — shared functions in new sizes, one
  // Fig.6-equivalent drive form, and two functions 28SOI never saw.
  LibraryComposition target_comp;
  target_comp.functions = {"NAND2", "NOR2", "AOI21", "XOR2", "MUX2I"};
  target_comp.drives = {{1, StructureVariant::kWide}, {2, StructureVariant::kSplit}};
  target_comp.flavors = {{"", 1.0}};
  std::cout << "characterizing the C40 target library (ground truth for scoring)...\n";
  const std::vector<CharacterizedCell> targets =
      characterize_library(build_library(technology_c40(), target_comp), copt);

  active::ActiveOptions options;
  options.base.ml.forest.num_trees = 12;
  options.base.routing = RoutingPolicy::kStructural;
  const HybridReport report = active::run_active_flow(train, targets, options).hybrid;

  std::cout << "\nper-cell routing:\n";
  for (const HybridCellOutcome& o : report.outcomes) {
    const CharacterizedCell& cell = targets[o.cell_index];
    std::cout << "  " << cell.model.cell_name << " [" << structure_match_name(o.match) << "] -> "
              << (o.routed_to_ml ? "ML" : "simulation");
    if (o.routed_to_ml) {
      std::cout << ", accuracy " << format_fixed(100.0 * o.accuracy, 2) << "%, "
                << format_fixed(o.ml_seconds, 3) << " s vs "
                << format_fixed(o.conventional_seconds / 3600.0, 1) << " modeled SPICE hours";
    }
    std::cout << '\n';
  }

  std::cout << "\ntotals:\n";
  std::cout << "  simulation-only: " << format_fixed(report.conventional_only_seconds() / 86400.0, 2)
            << " modeled days\n";
  std::cout << "  hybrid         : " << format_fixed(report.hybrid_seconds() / 86400.0, 2)
            << " modeled days\n";
  std::cout << "  reduction on ML-covered cells: "
            << format_fixed(100.0 * report.ml_portion_reduction(), 2) << "%\n";
  std::cout << "  overall reduction            : "
            << format_fixed(100.0 * report.overall_reduction(), 1) << "%\n";
  return 0;
}
