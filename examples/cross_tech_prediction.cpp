// Cross-technology prediction: train a Random Forest on 28SOI cells of
// one (inputs, transistors) group and predict the CA model of a C28
// cell — no defect simulation on the target technology. This is the
// paper's core result (Section V.A.2) in miniature.
//
//   $ ./cross_tech_prediction
#include <iostream>

#include "flow/ml_flow.hpp"
#include "util/strings.hpp"

int main() {
  using namespace caml;

  const Technology soi = technology_28soi();
  const Technology c28 = technology_c28();
  CharacterizeOptions copt;

  // Training set: NAND2/NOR2 drive and flavor variants from "28SOI".
  std::cout << "characterizing the 28SOI training cells (simulation-based)...\n";
  std::vector<CharacterizedCell> train;
  Rng rng(2024);
  for (const char* function : {"NAND2", "NOR2"}) {
    for (const FlavorSpec& flavor : {FlavorSpec{"", 1.0}, FlavorSpec{"LP", 0.85},
                                    FlavorSpec{"HP", 1.1}}) {
      Rng cell_rng = rng.fork();
      LibraryCell lc;
      const std::string name =
          std::string(function) + "X1" + (flavor.suffix.empty() ? "" : "_" + flavor.suffix);
      lc.cell = build_cell(find_function(function), soi, {1, StructureVariant::kWide}, flavor,
                           name, cell_rng);
      lc.function = function;
      lc.technology = soi.name;
      train.push_back(characterize_cell(lc, soi, copt));
    }
  }
  std::cout << "  " << train.size() << " cells characterized\n";

  // Target: a C28 NAND2 — different sizing, vendor naming and netlist
  // order. Its ground-truth model is generated only to score the
  // prediction.
  Rng target_rng(7);
  LibraryCell target_lc;
  target_lc.cell = build_cell(find_function("NAND2"), c28, {1, StructureVariant::kWide},
                              {"", 1.0}, "C28_NAND2X1", target_rng);
  target_lc.function = "NAND2";
  target_lc.technology = c28.name;
  const CharacterizedCell target = characterize_cell(target_lc, c28, copt);

  MlOptions ml;
  ml.forest.num_trees = 16;
  std::vector<const CharacterizedCell*> pool;
  for (const CharacterizedCell& c : train) pool.push_back(&c);
  std::cout << "training the Random Forest on the group (2 inputs, 4 transistors)...\n";
  const auto classifier = train_group_classifier(pool, ml);

  std::cout << "predicting the C28 cell's CA model (no defect simulation)...\n";
  const CaModel predicted = predict_ca_model(*classifier, target, ml);

  const double accuracy = ca_model_agreement(target.model, predicted);
  std::cout << "\nprediction accuracy vs simulated ground truth: "
            << format_fixed(100.0 * accuracy, 2) << "%\n";
  std::cout << "defect classes (truth vs predicted):\n";
  std::cout << "  static    : " << target.model.count_class(DefectClass::kStatic) << " vs "
            << predicted.count_class(DefectClass::kStatic) << '\n';
  std::cout << "  dynamic   : " << target.model.count_class(DefectClass::kDynamic) << " vs "
            << predicted.count_class(DefectClass::kDynamic) << '\n';
  std::cout << "  undetected: " << target.model.count_class(DefectClass::kUndetected) << " vs "
            << predicted.count_class(DefectClass::kUndetected) << '\n';

  std::cout << "\nper-defect agreement (first 10 defects):\n";
  for (std::size_t d = 0; d < predicted.defects.size() && d < 10; ++d) {
    std::size_t agree = 0;
    for (std::size_t s = 0; s < predicted.stimuli.size(); ++s) {
      agree += predicted.defects[d].detection[s] == target.model.defects[d].detection[s];
    }
    std::cout << "  " << predicted.defects[d].defect.describe(target.source.cell) << ": "
              << agree << "/" << predicted.stimuli.size() << " stimuli agree\n";
  }
  return 0;
}
