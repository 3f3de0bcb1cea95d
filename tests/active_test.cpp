// Active-learning subsystem tests: margin API, incremental forest
// growth, budgeted acquisition, and the determinism contract (fixed
// seed + any jobs value => identical journals and byte-identical final
// model stores, including across kill+resume). Test names start with
// Active* so scripts/check_tsan.sh picks them up.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include <gtest/gtest.h>
#include <unistd.h>

#include "active/acquisition.hpp"
#include "active/learner.hpp"
#include "libgen/technology.hpp"
#include "ml/forest.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace caml {
namespace {

namespace fs = std::filesystem;

using testing::build_function;
using testing::characterize;
using testing::hexfloats;

std::string temp_dir(const char* tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("caml_active_" + std::to_string(::getpid()) + "_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Labeled rows over `features` features with a weakly learnable
/// target, so a forest has genuine disagreement to expose.
Dataset make_dataset(std::size_t rows, std::size_t features, std::uint64_t seed) {
  Dataset data(features);
  std::uint64_t x = seed | 1;
  std::vector<std::int8_t> row(features);
  for (std::size_t r = 0; r < rows; ++r) {
    int sum = 0;
    for (std::int8_t& v : row) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<std::int8_t>(static_cast<int>(x % 3) - 1);
      sum += v;
    }
    // Noisy majority label: mostly sum-driven, flipped every 7th row.
    const std::uint8_t label = (sum > 0) != (r % 7 == 0) ? 1 : 0;
    data.add_row(row.data(), label);
  }
  return data;
}

/// The standard fixture of these tests: a 28SOI training slice and a
/// C28 target slice sharing group shapes, plus one function the
/// training set never saw.
struct ActiveCorpus {
  std::vector<CharacterizedCell> training;
  std::vector<CharacterizedCell> targets;
};

const ActiveCorpus& corpus() {
  static const ActiveCorpus c = [] {
    const Technology soi = technology_28soi();
    const Technology c28 = technology_c28();
    ActiveCorpus out;
    for (const char* f : {"INV", "NAND2", "NOR2", "AOI21"}) {
      out.training.push_back(characterize(build_function(f, soi), soi));
      out.training.push_back(
          characterize(build_function(f, soi, {2, StructureVariant::kMerged}), soi));
    }
    for (const char* f : {"NAND2", "NOR2", "AOI21"}) {
      out.targets.push_back(characterize(build_function(f, c28), c28));
      out.targets.push_back(
          characterize(build_function(f, c28, {2, StructureVariant::kMerged}), c28));
    }
    // Functions/groups the training set never saw: prime acquisition
    // targets (their groups have no classifier at round 0).
    out.targets.push_back(characterize(build_function("XOR2", c28), c28));
    out.targets.push_back(
        characterize(build_function("XOR2", c28, {2, StructureVariant::kMerged}), c28));
    return out;
  }();
  return c;
}

active::ActiveOptions small_options() {
  active::ActiveOptions options;
  options.base.ml.forest.num_trees = 6;
  options.trees_per_round = 2;
  options.max_rounds = 3;
  options.budget_unit = active::BudgetUnit::kCount;
  options.sim_budget = 4;
  return options;
}

// ---------------------------------------------------------------------------
// Margin API

TEST(ActiveMargin, DefaultClassifierReportsFullConfidence) {
  DecisionTree tree;
  const Dataset data = make_dataset(64, 5, 7);
  tree.fit(data);
  const std::vector<std::int8_t> row(5, 0);
  const std::vector<double> margins =
      tree.predict_product(ProductView::row_block(row.data(), 1, 5)).margin;
  ASSERT_EQ(margins.size(), 1u);
  EXPECT_DOUBLE_EQ(margins[0], 1.0);
}

TEST(ActiveMargin, ForestMarginTracksVoteDisagreement) {
  const Dataset data = make_dataset(256, 6, 11);
  ForestParams params;
  params.num_trees = 9;
  params.tree.max_features = 2;  // force per-split subsampling => diversity
  RandomForest forest(params);
  forest.fit(data);

  std::vector<std::int8_t> rows;
  for (std::size_t r = 0; r < 64; ++r) {
    for (std::size_t f = 0; f < 6; ++f) {
      rows.push_back(static_cast<std::int8_t>(static_cast<int>((r * 6 + f) % 3) - 1));
    }
  }
  const std::vector<double> margins =
      forest.predict_product(ProductView::row_block(rows.data(), 64, 6)).margin;
  ASSERT_EQ(margins.size(), 64u);
  double min_m = 1.0;
  for (const double m : margins) {
    EXPECT_GE(m, 0.0);
    EXPECT_LE(m, 1.0);
    min_m = std::min(min_m, m);
  }
  // A 9-tree forest over noisy labels must disagree somewhere.
  EXPECT_LT(min_m, 1.0);

  // Batching must not change a single bit: per-row batches reproduce
  // the full sweep exactly.
  std::vector<double> per_row;
  for (std::size_t r = 0; r < 64; ++r) {
    per_row.push_back(
        forest.predict_product(ProductView::row_block(rows.data() + r * 6, 1, 6)).margin.at(0));
  }
  EXPECT_EQ(hexfloats(per_row), hexfloats(margins));
}

TEST(ActiveMargin, BlendedConfidenceAndPriorOrdering) {
  EXPECT_DOUBLE_EQ(active::blended_confidence({1.0, 0.0}, {1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(active::blended_confidence({0.5}, {0.0}), 0.0);
  EXPECT_DOUBLE_EQ(active::blended_confidence({0.75}, {0.5}), 0.5);
  EXPECT_GT(active::structural_prior(StructureMatch::kIdentical),
            active::structural_prior(StructureMatch::kEquivalent));
  EXPECT_GT(active::structural_prior(StructureMatch::kEquivalent),
            active::structural_prior(StructureMatch::kNew));

  std::vector<active::CandidateScore> scores = {{3, 0.5}, {1, 0.5}, {2, 0.1}};
  active::sort_into_acquisition_order(scores);
  EXPECT_EQ(scores[0].cell_index, 2u);  // least confident first
  EXPECT_EQ(scores[1].cell_index, 1u);  // tie broken by index
  EXPECT_EQ(scores[2].cell_index, 3u);
}

// ---------------------------------------------------------------------------
// Incremental fit

TEST(ActiveFitMore, GrowsDeterministicallyAndMatchesAcrossJobs) {
  const Dataset first = make_dataset(200, 6, 3);
  const Dataset enlarged = make_dataset(260, 6, 3);  // superset-shaped growth

  ForestParams params;
  params.num_trees = 6;
  const auto grow = [&](std::size_t jobs) {
    ForestParams p = params;
    p.jobs = jobs;
    RandomForest forest(p);
    forest.fit(first);
    forest.fit_more(enlarged, 3);
    forest.fit_more(enlarged, 3);
    return forest;
  };
  const RandomForest serial = grow(1);
  const RandomForest threaded = grow(4);
  ASSERT_EQ(serial.trees().size(), 12u);
  ASSERT_EQ(threaded.trees().size(), 12u);

  std::vector<std::int8_t> rows;
  std::uint64_t x = 99;
  for (std::size_t i = 0; i < 50 * 6; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    rows.push_back(static_cast<std::int8_t>(static_cast<int>(x % 3) - 1));
  }
  const auto probas = [&](const RandomForest& forest) {
    return hexfloats(forest.predict_product(ProductView::row_block(rows.data(), 50, 6)).proba);
  };
  EXPECT_NE(probas(serial), hexfloats(std::vector<double>(50, 0.0)))
      << "probe rows must exercise non-trivial leaf mixtures";
  EXPECT_EQ(probas(serial), probas(threaded))
      << "warm-started forests must be bit-identical for any jobs value";

  // The increments draw fresh randomness: grown trees are not clones of
  // the first batch (they at least see different data).
  RandomForest refit(params);
  refit.fit(enlarged);
  EXPECT_EQ(refit.trees().size(), 6u);
  EXPECT_NE(probas(serial), probas(refit));

  // fit_more(0) is a no-op.
  RandomForest noop(params);
  noop.fit(first);
  noop.fit_more(enlarged, 0);
  EXPECT_EQ(noop.trees().size(), 6u);
}

// ---------------------------------------------------------------------------
// Acquisition loop

TEST(ActiveFlow, RespectsBudgetAndAcquiresMostUncertainFirst) {
  active::ActiveOptions options = small_options();
  options.sim_budget = 2;
  const active::ActiveReport report =
      active::run_active_flow(corpus().training, corpus().targets, options);

  EXPECT_LE(report.spent, options.sim_budget);
  EXPECT_LE(report.acquired, 2u);
  EXPECT_EQ(report.acquired,
            static_cast<std::size_t>(std::count(report.acquired_mask.begin(),
                                                report.acquired_mask.end(), 1)));
  // The XOR2 cells (last two targets) have no group model at round 0 —
  // confidence 0 — so the budget goes to them first.
  const std::size_t n = corpus().targets.size();
  EXPECT_EQ(report.acquired_mask[n - 2], 1);
  EXPECT_EQ(report.acquired_mask[n - 1], 1);
  // Everything else is predicted by the final forests.
  EXPECT_EQ(report.forced_conventional, 0u);
  for (const HybridCellOutcome& o : report.hybrid.outcomes) {
    if (report.acquired_mask[o.cell_index]) {
      EXPECT_FALSE(o.routed_to_ml);
    } else {
      EXPECT_TRUE(o.routed_to_ml);
      EXPECT_GT(o.accuracy, 0.9);
    }
  }
  EXPECT_FALSE(report.rounds.empty());
  EXPECT_DOUBLE_EQ(report.rounds.front().min_confidence, 0.0);
}

TEST(ActiveFlow, UnaffordableBudgetForcesConventionalRoute) {
  // Seconds-unit budget far below any cell's simulation cost: nothing
  // is acquirable, so the unseen-group cells must fall back to
  // conventional generation outside the budget.
  active::ActiveOptions options = small_options();
  options.budget_unit = active::BudgetUnit::kSeconds;
  options.sim_budget = 0.001;
  const active::ActiveReport report =
      active::run_active_flow(corpus().training, corpus().targets, options);
  EXPECT_EQ(report.acquired, 0u);
  EXPECT_DOUBLE_EQ(report.spent, 0.0);
  EXPECT_EQ(report.forced_conventional, 2u);  // the two XOR2 cells
}

TEST(ActiveFlow, ConvergedMarginsStopTheLoopEarly) {
  // With an easily satisfied margin, nothing is worth simulating: the
  // first round converges and no budget is spent.
  active::ActiveOptions options = small_options();
  options.converge_margin = 0.0;
  const active::ActiveReport report =
      active::run_active_flow(corpus().training, corpus().targets, options);
  EXPECT_EQ(report.acquired, 0u);
  ASSERT_EQ(report.rounds.size(), 1u);
  EXPECT_EQ(report.rounds[0].acquired, 0u);
}

TEST(ActiveFlow, HybridPolicyBlendsStructuralPrior) {
  active::ActiveOptions options = small_options();
  options.base.routing = RoutingPolicy::kHybrid;
  options.structural_prior_weight = 1.0;  // prior only: new structures first
  const active::ActiveReport report =
      active::run_active_flow(corpus().training, corpus().targets, options);
  EXPECT_EQ(report.policy, RoutingPolicy::kHybrid);
  // With a pure structural prior the two structurally new XOR2 cells
  // are the least confident candidates.
  const std::size_t n = corpus().targets.size();
  EXPECT_EQ(report.acquired_mask[n - 2], 1);
  EXPECT_EQ(report.acquired_mask[n - 1], 1);
}

TEST(ActiveFlow, StructuralPolicyReproducesFig7Routing) {
  // The paper's Fig. 7 routing on this corpus: the six shared-function
  // cells are structurally known and predicted; XOR2X1 is new and
  // XOR2X2M (equivalent to it once it is simulated) has no group pool,
  // so both are simulated. The expected values are the routing a
  // one-pass sequential Fig. 7 walk produces on this corpus.
  const std::vector<std::uint8_t> expected_mask = {0, 0, 0, 0, 0, 0, 1, 1};
  const std::vector<StructureMatch> expected_match = {
      StructureMatch::kIdentical, StructureMatch::kIdentical, StructureMatch::kIdentical,
      StructureMatch::kIdentical, StructureMatch::kIdentical, StructureMatch::kIdentical,
      StructureMatch::kNew,       StructureMatch::kEquivalent};
  for (const std::size_t per_round : {std::size_t{0}, std::size_t{1}}) {
    active::ActiveOptions options;
    options.base.routing = RoutingPolicy::kStructural;
    options.base.ml.forest.num_trees = 6;
    options.acquisitions_per_round = per_round;  // chunking must not change routing
    const active::ActiveReport report =
        active::run_active_flow(corpus().training, corpus().targets, options);
    EXPECT_EQ(report.policy, RoutingPolicy::kStructural);
    EXPECT_EQ(report.acquired_mask, expected_mask) << "per_round=" << per_round;
    EXPECT_EQ(report.forced_conventional, 0u);
    ASSERT_EQ(report.hybrid.outcomes.size(), expected_match.size());
    double simulated = 0.0;
    for (const HybridCellOutcome& o : report.hybrid.outcomes) {
      EXPECT_EQ(o.match, expected_match[o.cell_index]) << o.cell_index;
      EXPECT_EQ(o.routed_to_ml, expected_mask[o.cell_index] == 0) << o.cell_index;
      if (!o.routed_to_ml) simulated += o.conventional_seconds;
    }
    EXPECT_DOUBLE_EQ(report.spent, simulated);
    // Every group trained on its final pool: six training groups plus
    // the two XOR2 groups the acquisitions created.
    EXPECT_EQ(report.models.num_groups(), 8u);
  }
}

// ---------------------------------------------------------------------------
// Determinism contract

TEST(ActiveFlow, JournalsAndModelsIdenticalAcrossJobCounts) {
  for (const RoutingPolicy policy : {RoutingPolicy::kActive, RoutingPolicy::kStructural}) {
    SCOPED_TRACE(routing_policy_name(policy));
    const auto run = [&](const std::string& dir, std::size_t jobs) {
      active::ActiveOptions options = small_options();
      options.base.routing = policy;
      options.jobs = jobs;
      options.base.ml.forest.jobs = jobs;
      options.base.checkpoint.dir = dir;
      return active::run_active_flow(corpus().training, corpus().targets, options);
    };
    const std::string dir1 = temp_dir("jobs1");
    const active::ActiveReport serial = run(dir1, 1);
    const std::string store1 = dir1 + "/models.caml";
    serial.models.save_file(store1);

    // 3 workers leave one idle under the largest-first group schedule.
    for (const std::size_t jobs : {3, 4}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs));
      const std::string dir = temp_dir(("jobs" + std::to_string(jobs)).c_str());
      const active::ActiveReport threaded = run(dir, jobs);

      EXPECT_EQ(slurp(dir1 + "/" + CheckpointJournal::kFileName),
                slurp(dir + "/" + CheckpointJournal::kFileName))
          << "acquisition journals must be byte-identical across job counts";

      const std::string store = dir + "/models.caml";
      threaded.models.save_file(store);
      EXPECT_EQ(slurp(store1), slurp(store))
          << "final model stores must be byte-identical across job counts";

      ASSERT_EQ(serial.hybrid.outcomes.size(), threaded.hybrid.outcomes.size());
      for (std::size_t i = 0; i < serial.hybrid.outcomes.size(); ++i) {
        EXPECT_EQ(serial.hybrid.outcomes[i].routed_to_ml,
                  threaded.hybrid.outcomes[i].routed_to_ml);
        EXPECT_DOUBLE_EQ(serial.hybrid.outcomes[i].accuracy,
                         threaded.hybrid.outcomes[i].accuracy);
      }
      EXPECT_EQ(serial.acquired_mask, threaded.acquired_mask);
    }
  }
}

TEST(ActiveFlow, UntrainableGroupsFailInKeyOrderForAnyJobs) {
  // Two training groups cannot train: the lowest-key group's cells have
  // no stimuli, so they give no training rows, and one cell of the
  // largest-key group claims the wrong input count. Each fails its
  // matrix build with its own message. The larger group is scheduled
  // first, yet both trainers report failures in key order, exactly as a
  // group-by-group loop would.
  std::vector<CharacterizedCell> training = corpus().training;
  const GroupMap groups = group_cells(training);
  ASSERT_GE(groups.size(), 3u);
  const GroupKey empty_key = groups.begin()->first;
  const GroupKey broken_key = groups.rbegin()->first;
  for (std::size_t m : groups.begin()->second) {
    training[m].model.stimuli.clear();
    training[m].model.golden_responses.clear();
    training[m].model.defects.clear();
  }
  training[groups.rbegin()->second.front()].model.num_inputs += 1;

  MlOptions ml = small_options().base.ml;
  for (const std::size_t jobs : {1, 4}) {
    ml.forest.jobs = jobs;
    try {
      GroupModelStore::train(training, ml);
      ADD_FAILURE() << "training must fail at jobs=" << jobs;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("stimuli.size()"), std::string::npos)
          << "jobs=" << jobs << ": " << e.what();
    }
  }

  const auto key_text = [](const GroupKey& key) {
    return "group (" + std::to_string(key.num_inputs) + " in, " +
           std::to_string(key.num_transistors) + " T)";
  };
  for (const RoutingPolicy policy :
       {RoutingPolicy::kActive, RoutingPolicy::kHybrid, RoutingPolicy::kStructural}) {
    SCOPED_TRACE(routing_policy_name(policy));
    const auto run = [&](std::size_t jobs) {
      active::ActiveOptions options = small_options();
      options.base.routing = policy;
      options.jobs = jobs;
      options.base.ml.forest.jobs = jobs;
      std::ostringstream warnings;
      std::streambuf* old = std::cerr.rdbuf(warnings.rdbuf());
      active::ActiveReport report = active::run_active_flow(training, corpus().targets, options);
      std::cerr.rdbuf(old);
      return std::make_pair(std::move(report), warnings.str());
    };
    const auto [serial, serial_warnings] = run(1);
    const auto [threaded, threaded_warnings] = run(4);
    EXPECT_EQ(serial_warnings, threaded_warnings);
    const std::size_t empty_at = serial_warnings.find(key_text(empty_key));
    const std::size_t broken_at = serial_warnings.find(key_text(broken_key));
    ASSERT_NE(empty_at, std::string::npos) << serial_warnings;
    ASSERT_NE(broken_at, std::string::npos) << serial_warnings;
    EXPECT_LT(empty_at, broken_at) << serial_warnings;

    // Only the two broken groups degrade; every other group trained.
    for (const active::ActiveReport* report : {&serial, &threaded}) {
      for (const auto& [key, members] : groups) {
        EXPECT_EQ(report->models.has_group(key), key != empty_key && key != broken_key)
            << key_text(key);
      }
    }
    const std::string dir = temp_dir("untrainable");
    serial.models.save_file(dir + "/a.caml");
    threaded.models.save_file(dir + "/b.caml");
    EXPECT_EQ(slurp(dir + "/a.caml"), slurp(dir + "/b.caml"));
  }
}

TEST(ActiveFlow, ResumedRunEqualsUninterrupted) {
  for (const RoutingPolicy policy : {RoutingPolicy::kActive, RoutingPolicy::kStructural}) {
    SCOPED_TRACE(routing_policy_name(policy));
    const std::string full_dir = temp_dir("full");
    const std::string cut_dir = temp_dir("cut");

    const auto run = [&](const std::string& dir, std::size_t rounds, bool resume) {
      active::ActiveOptions options = small_options();
      options.base.routing = policy;
      // One acquisition per round, so the cut lands between the
      // structural policy's two acquisitions too.
      if (policy == RoutingPolicy::kStructural) options.acquisitions_per_round = 1;
      options.max_rounds = rounds;
      options.base.checkpoint.dir = dir;
      options.base.checkpoint.every = 1;  // flush per acquisition
      options.base.checkpoint.resume = resume;
      return active::run_active_flow(corpus().training, corpus().targets, options);
    };

    // Uninterrupted reference.
    const active::ActiveReport full = run(full_dir, 3, false);
    // "Killed" after one round (simulated by capping rounds), then
    // resumed to completion from the journal.
    run(cut_dir, 1, false);
    const active::ActiveReport resumed = run(cut_dir, 3, true);

    EXPECT_EQ(slurp(full_dir + "/" + CheckpointJournal::kFileName),
              slurp(cut_dir + "/" + CheckpointJournal::kFileName))
        << "resumed journal must equal the uninterrupted run's";

    const std::string full_store = full_dir + "/models.caml";
    const std::string cut_store = cut_dir + "/models.caml";
    full.models.save_file(full_store);
    resumed.models.save_file(cut_store);
    EXPECT_EQ(slurp(full_store), slurp(cut_store))
        << "resumed model store must equal the uninterrupted run's";

    ASSERT_FALSE(resumed.rounds.empty());
    EXPECT_TRUE(resumed.rounds.front().replayed);
    EXPECT_EQ(resumed.acquired_mask, full.acquired_mask);
    EXPECT_DOUBLE_EQ(resumed.spent, full.spent);
  }
}

TEST(ActiveFlow, FullRefitFallbackStaysDeterministic) {
  const auto run = [&](std::size_t jobs) {
    active::ActiveOptions options = small_options();
    options.full_refit = true;
    options.jobs = jobs;
    options.base.ml.forest.jobs = jobs;
    return active::run_active_flow(corpus().training, corpus().targets, options);
  };
  const active::ActiveReport a = run(1);
  const active::ActiveReport b = run(4);
  const std::string dir = temp_dir("refit");
  a.models.save_file(dir + "/a.caml");
  b.models.save_file(dir + "/b.caml");
  EXPECT_EQ(slurp(dir + "/a.caml"), slurp(dir + "/b.caml"));
  EXPECT_EQ(a.acquired_mask, b.acquired_mask);
}

}  // namespace
}  // namespace caml
