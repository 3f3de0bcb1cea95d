#include <gtest/gtest.h>

#include "camatrix/matrix.hpp"
#include "camodel/model_io.hpp"
#include "active/learner.hpp"
#include "flow/report.hpp"
#include "netlist/spice_parser.hpp"
#include "netlist/spice_writer.hpp"
#include "test_support.hpp"

namespace caml {
namespace {

using testing::build_function;
using testing::characterize;
using testing::make_nand2;

// End-to-end: conventional CA generation on the paper's NAND2 example.
TEST(Integration, Nand2ConventionalFlowProducesSaneModel) {
  const Cell cell = make_nand2();
  const CaModel model = generate_ca_model(cell);

  EXPECT_EQ(model.num_inputs, 2u);
  EXPECT_EQ(model.stimuli.size(), 4u + 12u);  // exhaustive pairs
  // Opens: 3 per transistor. Intra shorts: 6 terminal pairs minus the
  // pairs already connected (bulk-source on the rail-adjacent devices:
  // N11, Px, Py) -> 12 + (6 + 5 + 5 + 5) = 33.
  EXPECT_EQ(model.defects.size(), 33u);

  // NAND truth table on the static prefix: Z = !(A&B).
  for (InputPattern p = 0; p < 4; ++p) {
    const bool expect_one = !((p & 1u) && (p & 2u));
    EXPECT_EQ(model.golden_responses[p], expect_one ? Sig::kOne : Sig::kZero)
        << "pattern " << p;
  }

  // Some defects are detected, and stuck-open-style defects exist that
  // need two-pattern tests (the dynamic class is non-empty).
  EXPECT_GT(model.count_class(DefectClass::kStatic), 0u);
  EXPECT_GT(model.count_class(DefectClass::kDynamic), 0u);
  EXPECT_GT(model.detection_density(), 0.0);
  EXPECT_LT(model.detection_density(), 1.0);
  EXPECT_GT(model.equivalence_classes.size(), 2u);
}

// End-to-end: SPICE text -> parse -> characterize -> CA-matrix.
TEST(Integration, SpiceRoundTripAndMatrixShape) {
  const Cell cell = make_nand2();
  const SpiceWriter writer;
  const SpiceParser parser;
  const std::vector<Cell> parsed = parser.parse_string(writer.to_string(cell));
  ASSERT_EQ(parsed.size(), 1u);

  const CaModel model = generate_ca_model(parsed[0]);
  const CanonicalCell canon = canonicalize(parsed[0]);
  const CaMatrix matrix = build_ca_matrix(parsed[0], model, canon);

  // Rows: (defects + 1 free) * stimuli. Columns: 2 inputs + Z +
  // 4 truth-table + 4 activity + 16 defect-terminal columns.
  EXPECT_EQ(matrix.num_rows(), (model.defects.size() + 1) * model.stimuli.size());
  EXPECT_EQ(matrix.num_features(), 2u + 1u + 4u + 4u + 16u);
  EXPECT_TRUE(matrix.has_labels());
}

// End-to-end ML: leave-one-out inside a group of structurally identical
// sizing variants — the paper's dominant same-technology case, which it
// predicts at ~100%.
TEST(Integration, LeaveOneOutPredictsIdenticalStructureSiblings) {
  const Technology tech = technology_28soi();
  std::vector<CharacterizedCell> cells;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    cells.push_back(characterize(build_function("NAND2", tech, {1, StructureVariant::kWide},
                                                seed),
                                 tech));
  }
  MlOptions options;
  options.forest.num_trees = 10;
  const std::vector<CellEvaluation> evals = evaluate_leave_one_out(cells, options);
  ASSERT_EQ(evals.size(), cells.size());
  for (const CellEvaluation& e : evals) {
    EXPECT_GT(e.accuracy, 0.999) << "cell " << cells[e.cell_index].model.cell_name;
  }
}

// Mixed-function group: NAND2 and NOR2 rows collide on a few feature
// vectors with conflicting labels (an irreducible ambiguity of the
// paper's feature set), so cells of the majority structure stay highly
// accurate while the minority structure degrades — the paper's
// low-accuracy tail in miniature.
TEST(Integration, LeaveOneOutMixedFunctionGroupDegradesGracefully) {
  const Technology tech = technology_28soi();
  std::vector<CharacterizedCell> cells;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    cells.push_back(characterize(build_function("NAND2", tech, {1, StructureVariant::kWide},
                                                seed),
                                 tech));
  }
  cells.push_back(characterize(build_function("NOR2", tech, {1, StructureVariant::kWide}, 9),
                               tech));
  cells.push_back(characterize(build_function("NOR2", tech, {1, StructureVariant::kWide}, 10),
                               tech));

  MlOptions options;
  options.forest.num_trees = 10;
  const std::vector<CellEvaluation> evals = evaluate_leave_one_out(cells, options);
  ASSERT_EQ(evals.size(), cells.size());
  double mean = 0.0;
  for (const CellEvaluation& e : evals) {
    mean += e.accuracy;
    const bool is_nand = cells[e.cell_index].source.function == "NAND2";
    if (is_nand) {
      EXPECT_GT(e.accuracy, 0.97) << cells[e.cell_index].model.cell_name;
    } else {
      EXPECT_GT(e.accuracy, 0.85) << cells[e.cell_index].model.cell_name;
    }
  }
  EXPECT_GT(mean / static_cast<double>(evals.size()), 0.93);
}

// End-to-end hybrid flow on a tiny cross-technology corpus.
TEST(Integration, HybridFlowRoutesAndReports) {
  const testing::SmallCorpus corpus = testing::make_small_corpus();
  active::ActiveOptions options;
  options.base.routing = RoutingPolicy::kStructural;
  options.base.ml.forest.num_trees = 10;
  const HybridReport report = active::run_active_flow(corpus.train, corpus.eval, options).hybrid;

  ASSERT_EQ(report.outcomes.size(), corpus.eval.size());
  // The shared functions must be structurally matched; XOR2 must not.
  std::size_t new_cells = report.count_match(StructureMatch::kNew);
  EXPECT_GT(new_cells, 0u);
  EXPECT_GT(report.count_routed_to_ml(), 0u);
  EXPECT_LT(report.count_routed_to_ml(), corpus.eval.size());
  // The ML path must be dramatically cheaper than modeled SPICE.
  EXPECT_GT(report.ml_portion_reduction(), 0.9);
  EXPECT_GT(report.overall_reduction(), 0.0);
}

// CA model text round trip through the rewriting step.
TEST(Integration, CaModelTextRoundTrip) {
  const Cell cell = make_nand2();
  const CaModel model = generate_ca_model(cell);
  const std::string text = ca_model_to_string(model, cell);
  const CaModel back = ca_model_from_string(text, cell);

  ASSERT_EQ(back.defects.size(), model.defects.size());
  for (std::size_t d = 0; d < model.defects.size(); ++d) {
    EXPECT_EQ(back.defects[d].detection, model.defects[d].detection);
    EXPECT_EQ(back.defects[d].defect, model.defects[d].defect);
    EXPECT_EQ(back.defects[d].klass, model.defects[d].klass);
  }
  EXPECT_EQ(back.golden_responses, model.golden_responses);
}

}  // namespace
}  // namespace caml
