// E5 — Paper Section V.C: the hybrid CA model generation flow (Fig. 7).
// The paper evaluates a *function-representative* C40 subgroup: one
// cell per function family across the whole library (409 cells, of
// which 29% had an identical structure in the 28SOI training set, 21%
// an equivalent one and 50% were new). This bench mirrors that
// protocol: the target is the full function catalog under the C40
// technology (X1 + X2-merged forms), roughly half of whose functions
// the 28SOI training library has never seen. Costs combine the SPICE
// cost model (conventional path) with measured ML wall time.
#include <iostream>

#include "active/learner.hpp"
#include "bench_support.hpp"
#include "libgen/catalog.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace caml;
  bench::print_header(
      "Section V.C — hybrid flow (train 28SOI, target: function-representative C40 subgroup)");
  Log::set_level(LogLevel::kInfo);

  const auto& train = bench::suite().soi28;

  // Function-representative C40 subgroup: every catalog function, X1 and
  // X2-merged realizations, default flavor.
  LibraryComposition comp;
  comp.functions = catalog_names();
  comp.drives = {{1, StructureVariant::kWide}, {2, StructureVariant::kMerged}};
  comp.flavors = {{"", 1.0}};
  std::cerr << "[bench] characterizing the function-representative C40 subgroup...\n";
  const std::vector<CharacterizedCell> targets =
      characterize_library(build_library(technology_c40(), comp), bench::characterize_options());

  // Structural split against the *initial* training set (the paper's
  // 29/21/50 numbers are computed before any feedback).
  const StructureIndex initial_index(train);
  std::size_t identical = 0, equivalent = 0, fresh = 0;
  for (const CharacterizedCell& cell : targets) {
    switch (initial_index.classify(cell.canonical)) {
      case StructureMatch::kIdentical: ++identical; break;
      case StructureMatch::kEquivalent: ++equivalent; break;
      case StructureMatch::kNew: ++fresh; break;
    }
  }
  const std::size_t total = targets.size();
  const auto pct = [&](std::size_t n) {
    return format_fixed(100.0 * static_cast<double>(n) / static_cast<double>(total), 1) + "%";
  };
  TextTable split;
  split.new_row();
  split.cell("structural analysis (vs initial training set)");
  split.cell("cells");
  split.cell("fraction");
  split.new_row();
  split.cell("identical structure");
  split.cell(static_cast<long long>(identical));
  split.cell(pct(identical));
  split.new_row();
  split.cell("equivalent structure (Fig. 6)");
  split.cell(static_cast<long long>(equivalent));
  split.cell(pct(equivalent));
  split.new_row();
  split.cell("new structure (simulation required)");
  split.cell(static_cast<long long>(fresh));
  split.cell(pct(fresh));
  std::cout << "\nTarget subgroup: " << total << " C40 cells ("
            << comp.functions.size() << " functions)\n";
  split.print(std::cout);
  std::cout << "paper: 29% identical / 21% equivalent / 50% new of 409 cells\n";

  active::ActiveOptions options;
  options.base.ml = bench::ml_options();
  options.base.routing = RoutingPolicy::kStructural;
  const HybridReport report = active::run_active_flow(train, targets, options).hybrid;

  const double conv = report.conventional_only_seconds();
  const double hybrid = report.hybrid_seconds();
  const auto days = [](double seconds) { return format_fixed(seconds / 86400.0, 1); };

  std::cout << "\nGeneration-time accounting (SPICE cost model + measured ML wall time):\n";
  std::cout << "  cells routed to ML (with feedback): " << report.count_routed_to_ml() << "/"
            << total << "\n";
  std::cout << "  simulation-only flow          : " << days(conv) << " modeled days\n";
  std::cout << "  hybrid flow                   : " << days(hybrid) << " modeled days\n";
  std::cout << "  reduction on ML-covered cells : "
            << format_fixed(100.0 * report.ml_portion_reduction(), 2) << "% (paper: 99.7%)\n";
  std::cout << "  overall reduction             : "
            << format_fixed(100.0 * report.overall_reduction(), 1) << "% (paper: ~38%)\n";

  std::cout << "\nQuality of the ML-generated models:\n";
  std::cout << "  ML cells with accuracy > 97%  : "
            << format_fixed(100.0 * report.ml_accuracy_above(0.97), 1)
            << "% (paper: ~80% of the C40 subgroup predicted well)\n";
  return 0;
}
