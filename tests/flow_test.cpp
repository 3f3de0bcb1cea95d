#include <gtest/gtest.h>

#include <sstream>

#include "active/learner.hpp"
#include "flow/hybrid.hpp"
#include "flow/model_store.hpp"
#include "util/error.hpp"
#include <sstream>
#include "ml/knn.hpp"
#include "flow/report.hpp"
#include "test_support.hpp"

namespace caml {
namespace {

using testing::build_function;
using testing::characterize;

TEST(Characterize, PolicyProfileSelectsByInputCount) {
  PolicyProfile profile;
  profile.exhaustive_max_inputs = 3;
  EXPECT_EQ(profile.policy_for(2), StimulusPolicy::kExhaustivePairs);
  EXPECT_EQ(profile.policy_for(3), StimulusPolicy::kExhaustivePairs);
  EXPECT_EQ(profile.policy_for(4), StimulusPolicy::kSingleInputChange);
}

TEST(Characterize, CellCarriesModelCanonicalAndSim) {
  const Technology tech = technology_28soi();
  const CharacterizedCell cell = characterize(build_function("NAND2", tech), tech);
  EXPECT_EQ(cell.num_inputs(), 2u);
  EXPECT_EQ(cell.num_transistors(), 4u);
  EXPECT_EQ(cell.model.defects.size(), cell.model.defects.size());
  EXPECT_FALSE(cell.canonical.structure_signature.empty());
  EXPECT_EQ(cell.sim.unit_width_um, tech.sim.unit_width_um);
}

TEST(Grouping, GroupsByInputsAndTransistors) {
  const Technology tech = technology_28soi();
  std::vector<CharacterizedCell> cells;
  cells.push_back(characterize(build_function("NAND2", tech, {1, StructureVariant::kWide}, 1),
                               tech));
  cells.push_back(characterize(build_function("NOR2", tech, {1, StructureVariant::kWide}, 2),
                               tech));
  cells.push_back(characterize(build_function("INV", tech, {1, StructureVariant::kWide}, 3),
                               tech));
  cells.push_back(characterize(build_function("NAND3", tech, {1, StructureVariant::kWide}, 4),
                               tech));
  const GroupMap groups = group_cells(cells);
  EXPECT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups.at(GroupKey{2, 4}).size(), 2u);
  EXPECT_EQ(groups.at(GroupKey{1, 2}).size(), 1u);
  EXPECT_EQ(groups.at(GroupKey{3, 6}).size(), 1u);
}

TEST(MlFlow, TrainingSetWidthMatchesGroupShape) {
  const Technology tech = technology_28soi();
  const CharacterizedCell a = characterize(build_function("NAND2", tech), tech);
  const CharacterizedCell b =
      characterize(build_function("NOR2", tech, {1, StructureVariant::kWide}, 2), tech);
  MlOptions options;
  const Dataset data = build_training_set({&a, &b}, options);
  EXPECT_EQ(data.num_features(), matrix_feature_count(2, 4, options.matrix));
  EXPECT_GT(data.num_rows(), 0u);
  EXPECT_GT(data.num_positive(), 0u);
  // One cell trains on every one of its (D+1)·S CA-matrix rows.
  const Dataset full = build_training_set({&a}, options);
  EXPECT_EQ(full.num_rows(), (a.model.defects.size() + 1) * a.model.num_stimuli());
}

TEST(MlFlow, PredictedModelIsExactForIdenticalTwin) {
  const Technology tech = technology_28soi();
  const CharacterizedCell a =
      characterize(build_function("NAND2", tech, {1, StructureVariant::kWide}, 1), tech);
  const CharacterizedCell b =
      characterize(build_function("NAND2", tech, {1, StructureVariant::kWide}, 2), tech);
  MlOptions options;
  options.forest.num_trees = 10;
  const auto classifier = train_group_classifier({&a}, options);
  const CaModel predicted = predict_ca_model(*classifier, b, options);
  EXPECT_GT(ca_model_agreement(b.model, predicted), 0.999);
  // The predicted model classifies defects like the ground truth.
  EXPECT_EQ(predicted.count_class(DefectClass::kStatic),
            b.model.count_class(DefectClass::kStatic));
}

TEST(MlFlow, AgreementIsOneForIdenticalModels) {
  const Technology tech = technology_28soi();
  const CharacterizedCell a = characterize(build_function("NAND2", tech), tech);
  EXPECT_DOUBLE_EQ(ca_model_agreement(a.model, a.model), 1.0);
}

TEST(MlFlow, LeaveOneOutSkipsSingletonGroups) {
  const Technology tech = technology_28soi();
  std::vector<CharacterizedCell> cells;
  cells.push_back(characterize(build_function("INV", tech), tech));  // alone in (1, 2)
  MlOptions options;
  const auto evals = evaluate_leave_one_out(cells, options);
  EXPECT_TRUE(evals.empty());
}

TEST(MlFlow, CrossLibrarySkipsGroupsWithoutCounterpart) {
  const Technology soi = technology_28soi();
  const Technology c28 = technology_c28();
  std::vector<CharacterizedCell> train;
  train.push_back(characterize(build_function("NAND2", soi), soi));
  std::vector<CharacterizedCell> eval;
  eval.push_back(characterize(build_function("NAND3", c28), c28));  // (3, 6): no counterpart
  eval.push_back(characterize(build_function("NOR2", c28), c28));   // (2, 4): trains on NAND2
  MlOptions options;
  options.forest.num_trees = 5;
  const auto evals = evaluate_cross_library(train, eval, options);
  ASSERT_EQ(evals.size(), 1u);
  EXPECT_EQ(evals[0].group, (GroupKey{2, 4}));
}

TEST(MlFlow, CustomClassifierFactoryIsUsed) {
  const Technology tech = technology_28soi();
  const CharacterizedCell a = characterize(build_function("NAND2", tech), tech);
  MlOptions options;
  options.make_classifier = [] { return std::make_unique<KnnClassifier>(); };
  const auto classifier = train_group_classifier({&a}, options);
  EXPECT_EQ(classifier->name(), "kNN");
}

TEST(Report, AggregateGridStats) {
  std::vector<CellEvaluation> evals;
  evals.push_back({0, GroupKey{2, 4}, 1.0});
  evals.push_back({1, GroupKey{2, 4}, 0.95});
  evals.push_back({2, GroupKey{3, 6}, 0.90});
  const AccuracyGrid grid = aggregate_grid(evals);
  ASSERT_EQ(grid.size(), 2u);
  const GroupStats& g = grid.at(GroupKey{2, 4});
  EXPECT_EQ(g.count, 2u);
  EXPECT_NEAR(g.average(), 0.975, 1e-12);
  EXPECT_EQ(g.perfect, 1u);
  EXPECT_TRUE(g.any_perfect());
  EXPECT_FALSE(grid.at(GroupKey{3, 6}).any_perfect());
}

TEST(Report, PrintGridContainsEntriesAndMarks) {
  std::vector<CellEvaluation> evals;
  evals.push_back({0, GroupKey{2, 4}, 1.0});
  evals.push_back({1, GroupKey{3, 6}, 0.9});
  std::ostringstream os;
  print_accuracy_grid(os, aggregate_grid(evals), "Table IV.a");
  const std::string out = os.str();
  EXPECT_NE(out.find("Table IV.a"), std::string::npos);
  EXPECT_NE(out.find("100.00*"), std::string::npos);
  EXPECT_NE(out.find("90.00"), std::string::npos);
}

TEST(Report, DistributionStats) {
  std::vector<CellEvaluation> evals;
  for (double acc : {1.0, 0.99, 0.98, 0.96, 0.80}) {
    evals.push_back({0, GroupKey{2, 4}, acc});
  }
  const AccuracyDistribution dist = summarize_distribution(evals);
  EXPECT_EQ(dist.cells, 5u);
  EXPECT_NEAR(dist.fraction_above_97, 3.0 / 5.0, 1e-12);
  EXPECT_NEAR(dist.min, 0.80, 1e-12);
  EXPECT_EQ(dist.histogram[0], 1u);  // the 0.80 cell in the underflow bucket
  std::ostringstream os;
  print_distribution(os, dist, "V.B");
  EXPECT_NE(os.str().find("cells > 97%"), std::string::npos);
}

TEST(CostModel, ScalesWithSizeAndSimulationCount) {
  const Technology tech = technology_28soi();
  const CharacterizedCell small = characterize(build_function("NAND2", tech), tech);
  const CharacterizedCell large = characterize(
      build_function("NAND2", tech, {4, StructureVariant::kMerged}, 2), tech);
  const CostModel cost;
  EXPECT_GT(cost.conventional_seconds(small), 0.0);
  EXPECT_GT(cost.conventional_seconds(large), cost.conventional_seconds(small));
  EXPECT_GT(cost.seconds_per_simulation(40), cost.seconds_per_simulation(10));
}

TEST(Hybrid, FeedbackRoutesLaterTwinsToMl) {
  // Two identical new-structure cells: the first is simulated, and its
  // feedback into the index and pool lets the second ride on its model.
  const Technology soi = technology_28soi();
  const Technology c28 = technology_c28();
  std::vector<CharacterizedCell> training;
  training.push_back(characterize(build_function("NAND2", soi), soi));
  std::vector<CharacterizedCell> targets;
  targets.push_back(characterize(build_function("XOR2", c28, {1, StructureVariant::kWide}, 1),
                                 c28));
  targets.push_back(characterize(build_function("XOR2", c28, {1, StructureVariant::kWide}, 2),
                                 c28));

  active::ActiveOptions options;
  options.base.routing = RoutingPolicy::kStructural;
  options.base.ml.forest.num_trees = 5;
  const HybridReport fb = active::run_active_flow(training, targets, options).hybrid;
  EXPECT_FALSE(fb.outcomes[0].routed_to_ml);
  EXPECT_TRUE(fb.outcomes[1].routed_to_ml);
  EXPECT_GT(fb.outcomes[1].accuracy, 0.999);
}

TEST(Hybrid, ReportArithmetic) {
  HybridReport report;
  HybridCellOutcome ml;
  ml.routed_to_ml = true;
  ml.conventional_seconds = 100.0;
  ml.ml_seconds = 1.0;
  ml.accuracy = 0.99;
  ml.match = StructureMatch::kIdentical;
  HybridCellOutcome sim;
  sim.routed_to_ml = false;
  sim.conventional_seconds = 50.0;
  sim.match = StructureMatch::kNew;
  report.outcomes = {ml, sim};
  EXPECT_DOUBLE_EQ(report.conventional_only_seconds(), 150.0);
  EXPECT_DOUBLE_EQ(report.hybrid_seconds(), 51.0);
  EXPECT_DOUBLE_EQ(report.ml_portion_reduction(), 0.99);
  EXPECT_NEAR(report.overall_reduction(), 1.0 - 51.0 / 150.0, 1e-12);
  EXPECT_EQ(report.count_match(StructureMatch::kNew), 1u);
  EXPECT_EQ(report.count_routed_to_ml(), 1u);
  EXPECT_DOUBLE_EQ(report.ml_accuracy_above(0.97), 1.0);
}

TEST(Hybrid, ReportGuardsAgainstZeroMlRoutes) {
  // A library where nothing routes to ML (every structure is new, e.g.
  // an empty training set) must report 0.0 ratios, not NaN from 0/0.
  HybridReport empty;
  EXPECT_DOUBLE_EQ(empty.ml_portion_reduction(), 0.0);
  EXPECT_DOUBLE_EQ(empty.ml_accuracy_above(0.97), 0.0);
  EXPECT_DOUBLE_EQ(empty.overall_reduction(), 0.0);

  HybridCellOutcome sim;
  sim.routed_to_ml = false;
  sim.conventional_seconds = 50.0;
  sim.match = StructureMatch::kNew;
  HybridReport all_simulated;
  all_simulated.outcomes = {sim, sim};
  EXPECT_DOUBLE_EQ(all_simulated.ml_portion_reduction(), 0.0);
  EXPECT_DOUBLE_EQ(all_simulated.ml_accuracy_above(0.97), 0.0);
  EXPECT_DOUBLE_EQ(all_simulated.overall_reduction(), 0.0);

  // End to end: an empty-route run (no training data, a single target)
  // exercises the same guards.
  const Technology c28 = technology_c28();
  std::vector<CharacterizedCell> targets;
  targets.push_back(characterize(build_function("XOR2", c28), c28));
  active::ActiveOptions options;
  options.base.routing = RoutingPolicy::kStructural;
  const HybridReport report = active::run_active_flow({}, targets, options).hybrid;
  EXPECT_EQ(report.count_routed_to_ml(), 0u);
  EXPECT_DOUBLE_EQ(report.ml_portion_reduction(), 0.0);
  EXPECT_DOUBLE_EQ(report.ml_accuracy_above(0.97), 0.0);
}


TEST(ModelStore, TrainSaveLoadPredictRoundTrip) {
  const Technology tech = technology_28soi();
  std::vector<CharacterizedCell> training;
  training.push_back(characterize(build_function("NAND2", tech, {1, StructureVariant::kWide}, 1),
                                  tech));
  training.push_back(characterize(build_function("NOR2", tech, {1, StructureVariant::kWide}, 2),
                                  tech));
  training.push_back(characterize(build_function("INV", tech, {1, StructureVariant::kWide}, 3),
                                  tech));
  MlOptions options;
  options.forest.num_trees = 8;
  const GroupModelStore store = GroupModelStore::train(training, options);
  EXPECT_EQ(store.num_groups(), 2u);  // (2,4) and (1,2)

  std::stringstream buffer;
  store.save(buffer);
  const GroupModelStore loaded = GroupModelStore::load(buffer);
  EXPECT_EQ(loaded.num_groups(), store.num_groups());

  // Predict a fresh NAND2 twin through both stores: identical models.
  const CharacterizedCell target =
      characterize(build_function("NAND2", tech, {1, StructureVariant::kWide}, 9), tech);
  const CaModel a = store.predict(target.source.cell, target.canonical, target.model.policy,
                                  target.sim);
  const CaModel b = loaded.predict(target.source.cell, target.canonical, target.model.policy,
                                   target.sim);
  ASSERT_EQ(a.defects.size(), b.defects.size());
  for (std::size_t d = 0; d < a.defects.size(); ++d) {
    EXPECT_EQ(a.defects[d].detection, b.defects[d].detection);
  }
  EXPECT_GT(ca_model_agreement(target.model, a), 0.999);
}

TEST(ModelStore, MissingGroupThrows) {
  const Technology tech = technology_28soi();
  std::vector<CharacterizedCell> training;
  training.push_back(characterize(build_function("INV", tech), tech));
  MlOptions options;
  options.forest.num_trees = 4;
  const GroupModelStore store = GroupModelStore::train(training, options);
  const CharacterizedCell target = characterize(build_function("NAND3", tech), tech);
  EXPECT_THROW(store.predict(target.source.cell, target.canonical, target.model.policy,
                             target.sim),
               Error);
}

// A truncated or corrupt store file raises ParseError — previously bad
// numeric tokens escaped as std::invalid_argument from std::stoul.
TEST(ModelStore, RejectsCorruptStoreFile) {
  const std::string header = "CAMLMODELS groups=1 activity=1 response=1 truthtable=1 kind=0\n";
  std::istringstream bad_count(
      "CAMLMODELS groups=zz activity=1 response=1 truthtable=1 kind=0\n");
  EXPECT_THROW(GroupModelStore::load(bad_count), ParseError);
  std::istringstream bad_prefix("CAMLMODELS grps=1 activity=1 response=1 truthtable=1 kind=0\n");
  EXPECT_THROW(GroupModelStore::load(bad_prefix), ParseError);
  std::istringstream truncated(header);
  EXPECT_THROW(GroupModelStore::load(truncated), ParseError);
  std::istringstream bad_group(header + "GROUP x 4\n");
  EXPECT_THROW(GroupModelStore::load(bad_group), ParseError);
  std::istringstream missing_end(
      header + "GROUP 2 4\nFOREST trees=1 features=3\nTREE nodes=1\n-1 -1 0 0 1 1\nENDFOREST\n");
  EXPECT_THROW(GroupModelStore::load(missing_end), ParseError);
}

TEST(MlFlow, PredictForCellMatchesPredictFromModel) {
  // predict_ca_model_for_cell (new-cell path: defect universe from the
  // netlist) must agree with predict_ca_model (evaluation path: defect
  // list from the ground-truth model) because the conventional flow
  // enumerates defects in the same deterministic order.
  const Technology tech = technology_28soi();
  const CharacterizedCell train =
      characterize(build_function("AOI21", tech, {1, StructureVariant::kWide}, 4), tech);
  const CharacterizedCell target =
      characterize(build_function("AOI21", tech, {1, StructureVariant::kWide}, 5), tech);
  MlOptions options;
  options.forest.num_trees = 6;
  const auto classifier = train_group_classifier({&train}, options);
  const CaModel via_model = predict_ca_model(*classifier, target, options);
  const CaModel via_cell = predict_ca_model_for_cell(
      *classifier, target.source.cell, target.canonical, target.model.policy, target.sim,
      options);
  ASSERT_EQ(via_model.defects.size(), via_cell.defects.size());
  for (std::size_t d = 0; d < via_model.defects.size(); ++d) {
    EXPECT_EQ(via_model.defects[d].defect, via_cell.defects[d].defect);
    EXPECT_EQ(via_model.defects[d].detection, via_cell.defects[d].detection);
  }
}

}  // namespace
}  // namespace caml
