#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <numeric>
#include <sstream>

#include "ml/dataset.hpp"
#include "ml/forest.hpp"
#include "ml/forest_io.hpp"
#include "ml/knn.hpp"
#include "ml/linear.hpp"
#include "ml/tree.hpp"
#include "util/error.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace caml {
namespace {

using testing::accuracy;

// Synthetic dataset: label = f(features) for a known boolean function
// over small-int features, plus optional noise.
Dataset make_and_dataset(std::size_t rows, Rng& rng) {
  Dataset data(4);
  data.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    std::int8_t row[4];
    for (auto& v : row) v = static_cast<std::int8_t>(rng.below(4));
    const std::uint8_t label = (row[0] >= 2 && row[1] >= 2) ? 1 : 0;
    data.add_row(row, label);
  }
  return data;
}

Dataset make_xor_dataset(std::size_t rows, Rng& rng) {
  Dataset data(3);
  for (std::size_t r = 0; r < rows; ++r) {
    std::int8_t row[3];
    for (auto& v : row) v = static_cast<std::int8_t>(rng.below(2));
    const std::uint8_t label = static_cast<std::uint8_t>(row[0] ^ row[1]);
    data.add_row(row, label);
  }
  return data;
}

TEST(Dataset, AddRowAndAccessors) {
  Dataset data(3);
  const std::int8_t r0[] = {1, -2, 3};
  const std::int8_t r1[] = {0, 0, 0};
  data.add_row(r0, 1);
  data.add_row(r1, 0);
  EXPECT_EQ(data.num_rows(), 2u);
  EXPECT_EQ(data.num_features(), 3u);
  EXPECT_EQ(data.row(0)[1], -2);
  EXPECT_EQ(data.label(0), 1);
  EXPECT_EQ(data.num_positive(), 1u);
}

TEST(DecisionTree, LearnsAndFunction) {
  Rng rng(3);
  const Dataset train = make_and_dataset(2000, rng);
  const Dataset test = make_and_dataset(500, rng);
  DecisionTree tree;
  tree.fit(train);
  EXPECT_GT(accuracy(test.labels(), tree.predict_all(test)), 0.98);
  EXPECT_GT(tree.num_nodes(), 1u);
}

TEST(DecisionTree, LearnsXorDespiteZeroGainRoot) {
  // XOR has no single-feature gain at the root: the learner must accept
  // zero-gain splits to solve it.
  Rng rng(4);
  const Dataset train = make_xor_dataset(400, rng);
  DecisionTree tree;
  tree.fit(train);
  EXPECT_GT(accuracy(train.labels(), tree.predict_all(train)), 0.99);
}

TEST(DecisionTree, PureLeafShortCircuit) {
  Dataset data(2);
  const std::int8_t row[] = {1, 1};
  for (int i = 0; i < 10; ++i) data.add_row(row, 1);
  DecisionTree tree;
  tree.fit(data);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.predict(row), 1);
}

TEST(DecisionTree, DepthLimitRespected) {
  Rng rng(5);
  const Dataset train = make_and_dataset(2000, rng);
  TreeParams params;
  params.max_depth = 2;
  DecisionTree tree(params);
  tree.fit(train);
  EXPECT_LE(tree.depth(), 3u);  // root + 2 levels
}

TEST(DecisionTree, ConflictingDuplicatesResolveByMajority) {
  Dataset data(1);
  const std::int8_t row[] = {1};
  for (int i = 0; i < 7; ++i) data.add_row(row, 1);
  for (int i = 0; i < 3; ++i) data.add_row(row, 0);
  DecisionTree tree;
  tree.fit(data);
  EXPECT_EQ(tree.predict(row), 1);
  const auto [c0, c1] = tree.leaf_votes(row);
  EXPECT_EQ(c0, 3u);
  EXPECT_EQ(c1, 7u);
}

TEST(RandomForest, LearnsAndBeatsChance) {
  Rng rng(6);
  const Dataset train = make_and_dataset(2000, rng);
  const Dataset test = make_and_dataset(500, rng);
  ForestParams params;
  params.num_trees = 15;
  RandomForest forest(params);
  forest.fit(train);
  EXPECT_GT(accuracy(test.labels(), forest.predict_all(test)), 0.97);
  EXPECT_EQ(forest.trees().size(), 15u);
}

TEST(RandomForest, ProbaMonotoneWithVotes) {
  Rng rng(7);
  const Dataset train = make_and_dataset(1000, rng);
  RandomForest forest;
  forest.fit(train);
  const std::int8_t positive[] = {3, 3, 0, 0};
  const std::int8_t negative[] = {0, 0, 3, 3};
  const auto proba = [&](const std::int8_t* row) {
    return forest.predict_product(ProductView::row_block(row, 1, 4)).proba.at(0);
  };
  EXPECT_GT(proba(positive), 0.5);
  EXPECT_LT(proba(negative), 0.5);
}

TEST(RandomForest, DeterministicForSeed) {
  Rng rng(8);
  const Dataset train = make_and_dataset(500, rng);
  const Dataset test = make_and_dataset(100, rng);
  ForestParams params;
  params.seed = 123;
  RandomForest a(params), b(params);
  a.fit(train);
  b.fit(train);
  EXPECT_EQ(a.predict_all(test), b.predict_all(test));
}

TEST(RandomForest, EmptyLeafVotesAreNeutralNotNaN) {
  // A leaf with zero recorded votes (possible in forests loaded from
  // sparse files) used to contribute 0/0 = NaN, silently poisoning the
  // whole probability average; it must count as a neutral 0.5 instead.
  std::istringstream in(
      "FOREST trees=2 features=1\n"
      "TREE nodes=1\n"
      "-1 -1 0 0 0 0\n"
      "TREE nodes=1\n"
      "-1 -1 0 0 1 3\n"
      "ENDFOREST\n");
  const LoadedForest loaded = read_forest(in);
  const std::int8_t row[] = {0};
  const double p = loaded.forest.predict_product(ProductView::row_block(row, 1, 1)).proba.at(0);
  EXPECT_FALSE(std::isnan(p));
  EXPECT_DOUBLE_EQ(p, (0.5 + 0.75) / 2.0);
}

TEST(Knn, LearnsAndFunction) {
  Rng rng(10);
  const Dataset train = make_and_dataset(2000, rng);
  const Dataset test = make_and_dataset(300, rng);
  KnnClassifier knn;
  knn.fit(train);
  EXPECT_GT(accuracy(test.labels(), knn.predict_all(test)), 0.95);
}

TEST(Knn, ReferenceCapApplied) {
  Rng rng(11);
  const Dataset train = make_and_dataset(1000, rng);
  KnnParams params;
  params.max_reference_rows = 50;
  params.k = 3;
  KnnClassifier knn(params);
  knn.fit(train);
  const Dataset test = make_and_dataset(200, rng);
  // Still clearly better than chance even with a tiny reference set.
  EXPECT_GT(accuracy(test.labels(), knn.predict_all(test)), 0.8);
}

TEST(Logistic, LearnsLinearlySeparableData) {
  Rng rng(12);
  Dataset train(2);
  for (int i = 0; i < 2000; ++i) {
    std::int8_t row[2] = {static_cast<std::int8_t>(rng.range(-3, 3)),
                          static_cast<std::int8_t>(rng.range(-3, 3))};
    train.add_row(row, row[0] + row[1] > 0 ? 1 : 0);
  }
  LogisticClassifier clf;
  clf.fit(train);
  EXPECT_GT(accuracy(train.labels(), clf.predict_all(train)), 0.93);
}

TEST(LinearSvm, LearnsLinearlySeparableData) {
  Rng rng(13);
  Dataset train(2);
  for (int i = 0; i < 2000; ++i) {
    std::int8_t row[2] = {static_cast<std::int8_t>(rng.range(-3, 3)),
                          static_cast<std::int8_t>(rng.range(-3, 3))};
    train.add_row(row, row[0] - row[1] >= 1 ? 1 : 0);
  }
  LinearSvmClassifier clf;
  clf.fit(train);
  EXPECT_GT(accuracy(train.labels(), clf.predict_all(train)), 0.9);
}

TEST(Ridge, ClosedFormSolvesLinearProblem) {
  Rng rng(14);
  Dataset train(3);
  for (int i = 0; i < 1000; ++i) {
    std::int8_t row[3] = {static_cast<std::int8_t>(rng.range(-2, 2)),
                          static_cast<std::int8_t>(rng.range(-2, 2)),
                          static_cast<std::int8_t>(rng.range(-2, 2))};
    train.add_row(row, 2 * row[0] - row[1] > 0 ? 1 : 0);
  }
  RidgeClassifier clf(0.1);
  clf.fit(train);
  EXPECT_GT(accuracy(train.labels(), clf.predict_all(train)), 0.9);
}

TEST(Ridge, HandlesConstantColumn) {
  // A constant feature makes the normal equations singular in that
  // direction; the solver must not blow up.
  Dataset train(2);
  for (int i = 0; i < 50; ++i) {
    std::int8_t row[2] = {static_cast<std::int8_t>(i % 2), 1};
    train.add_row(row, static_cast<std::uint8_t>(i % 2));
  }
  RidgeClassifier clf(0.01);
  EXPECT_NO_THROW(clf.fit(train));
  const std::int8_t q1[] = {1, 1};
  const std::int8_t q0[] = {0, 1};
  EXPECT_EQ(clf.predict(q1), 1);
  EXPECT_EQ(clf.predict(q0), 0);
}

TEST(Metrics, EmptyAndDegenerateCases) {
  EXPECT_EQ(accuracy({}, {}), 0.0);
  EXPECT_THROW(accuracy({1}, {1, 0}), Error);
}


TEST(Dataset, DeduplicationMergesWeights) {
  Dataset a(2);
  const std::int8_t r0[] = {1, 2};
  const std::int8_t r1[] = {3, 4};
  a.add_row(r0, 1);
  a.add_row(r1, 0);
  a.add_row(r0, 1);  // duplicate of r0 with same label

  Dataset out(2);
  out.add_deduplicated(a);
  EXPECT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.total_weight(), 3u);
  // Merging again doubles weights, not rows.
  out.add_deduplicated(a);
  EXPECT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.total_weight(), 6u);
}

TEST(Dataset, DeduplicationKeepsConflictingLabelsSeparate) {
  Dataset a(1);
  const std::int8_t row[] = {5};
  a.add_row(row, 0);
  a.add_row(row, 1);  // same features, different label
  Dataset out(1);
  out.add_deduplicated(a);
  EXPECT_EQ(out.num_rows(), 2u);
}

TEST(DecisionTree, WeightedMajorityWins) {
  // One row with label 0 and weight 10 vs three distinct rows with
  // label 1: at the shared leaf the weighted class must win.
  Dataset data(1);
  const std::int8_t row[] = {2};
  data.add_row(row, 0, 10);
  data.add_row(row, 1, 3);
  DecisionTree tree;
  tree.fit(data);
  EXPECT_EQ(tree.predict(row), 0);
  const auto [c0, c1] = tree.leaf_votes(row);
  EXPECT_EQ(c0, 10u);
  EXPECT_EQ(c1, 3u);
}

TEST(DecisionTree, WeightedEqualsExpandedTraining) {
  // Training on deduplicated weighted rows must behave like training on
  // the expanded multiset.
  Rng rng(21);
  Dataset expanded(3);
  for (int i = 0; i < 900; ++i) {
    std::int8_t row[3];
    for (auto& v : row) v = static_cast<std::int8_t>(rng.below(3));
    const std::uint8_t label = (row[0] + row[1] > 2) ? 1 : 0;
    expanded.add_row(row, label);
  }
  Dataset dedup(3);
  dedup.add_deduplicated(expanded);
  EXPECT_LT(dedup.num_rows(), expanded.num_rows());
  EXPECT_EQ(dedup.total_weight(), expanded.num_rows());

  TreeParams params;  // deterministic: all features examined
  DecisionTree a(params, 7), b(params, 7);
  a.fit(expanded);
  b.fit(dedup);
  const Dataset test = [&] {
    Dataset t(3);
    for (int i = 0; i < 200; ++i) {
      std::int8_t row[3];
      for (auto& v : row) v = static_cast<std::int8_t>(rng.below(3));
      t.add_row(row, (row[0] + row[1] > 2) ? 1 : 0);
    }
    return t;
  }();
  EXPECT_EQ(a.predict_all(test), b.predict_all(test));
}


TEST(FeatureImportance, IdentifiesInformativeFeatures) {
  // Label depends only on features 0 and 1; features 2/3 are noise.
  Rng rng(77);
  const Dataset train = make_and_dataset(3000, rng);
  ForestParams params;
  params.num_trees = 10;
  RandomForest forest(params);
  forest.fit(train);
  const std::vector<double> imp = forest.feature_importance();
  ASSERT_EQ(imp.size(), 4u);
  double total = 0.0;
  for (double v : imp) {
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(imp[0] + imp[1], 0.8);
  EXPECT_GT(imp[0], imp[2]);
  EXPECT_GT(imp[1], imp[3]);
}

TEST(FeatureImportance, SingleLeafTreeHasZeroImportance) {
  Dataset data(2);
  const std::int8_t row[] = {1, 1};
  data.add_row(row, 1);
  DecisionTree tree;
  tree.fit(data);
  for (double v : tree.feature_importance()) EXPECT_EQ(v, 0.0);
}


TEST(Dataset, SubtractDeduplicatedEqualsRebuild) {
  Rng rng(55);
  std::vector<Dataset> parts;
  for (int c = 0; c < 4; ++c) {
    Dataset part(2);
    for (int i = 0; i < 200; ++i) {
      std::int8_t row[2] = {static_cast<std::int8_t>(rng.below(3)),
                            static_cast<std::int8_t>(rng.below(3))};
      part.add_row(row, static_cast<std::uint8_t>((row[0] + c) % 2));
    }
    parts.push_back(std::move(part));
  }
  Dataset master(2);
  for (const Dataset& p : parts) master.add_deduplicated(p);

  for (std::size_t held = 0; held < parts.size(); ++held) {
    const Dataset fast = master.subtract_deduplicated(parts[held]);
    Dataset slow(2);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (i != held) slow.add_deduplicated(parts[i]);
    }
    EXPECT_EQ(fast.total_weight(), slow.total_weight());
    // Same multiset of (row, label, weight): compare as sorted strings.
    const auto dump = [](const Dataset& d) {
      std::vector<std::string> rows;
      for (std::size_t r = 0; r < d.num_rows(); ++r) {
        std::string s(reinterpret_cast<const char*>(d.row(r)), d.num_features());
        s += static_cast<char>(d.label(r));
        s += std::to_string(d.weight(r));
        rows.push_back(std::move(s));
      }
      std::sort(rows.begin(), rows.end());
      return rows;
    };
    EXPECT_EQ(dump(fast), dump(slow));
  }
}

TEST(Dataset, SubtractDeduplicatedRejectsUnknownRows) {
  Dataset master(1);
  const std::int8_t a[] = {1};
  Dataset part(1);
  part.add_row(a, 1);
  master.add_deduplicated(part);
  Dataset stranger(1);
  const std::int8_t b[] = {2};
  stranger.add_row(b, 0);
  EXPECT_THROW(master.subtract_deduplicated(stranger), Error);
}

// Reference deduplication over an ordered map: first-occurrence row
// order, summed weights, (features, label) keys.
struct DedupOracle {
  using Key = std::pair<std::vector<std::int8_t>, std::uint8_t>;
  std::map<Key, std::size_t> index;
  std::vector<Key> rows;
  std::vector<std::uint32_t> weights;

  void add(const std::int8_t* row, std::size_t features, std::uint8_t label,
           std::uint32_t weight) {
    Key key{std::vector<std::int8_t>(row, row + features), label};
    const auto [it, inserted] = index.try_emplace(key, rows.size());
    if (inserted) {
      rows.push_back(std::move(key));
      weights.push_back(weight);
    } else {
      weights[it->second] += weight;
    }
  }
};

void expect_matches_oracle(const Dataset& data, const std::vector<DedupOracle::Key>& rows,
                           const std::vector<std::uint32_t>& weights) {
  ASSERT_EQ(data.num_rows(), rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    ASSERT_EQ(std::vector<std::int8_t>(data.row(r), data.row(r) + data.num_features()),
              rows[r].first)
        << "row " << r;
    ASSERT_EQ(data.label(r), rows[r].second) << "row " << r;
    ASSERT_EQ(data.weight(r), weights[r]) << "row " << r;
  }
}

TEST(Dataset, DeduplicationIndexMatchesMapOracle) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // Widths below 8, at 8 and between multiples of 8 (the hash reads
    // 8-byte words plus a zero-padded tail); a narrow value range so
    // repeats, and equal rows under both labels, are common.
    const std::size_t features = 1 + rng.below(20);
    const std::int64_t span = static_cast<std::int64_t>(1 + rng.below(3));
    const auto random_part = [&](std::size_t rows, bool weighted) {
      Dataset part(features);
      std::vector<std::int8_t> row(features);
      for (std::size_t r = 0; r < rows; ++r) {
        for (auto& v : row) v = static_cast<std::int8_t>(rng.range(-span, span));
        part.add_row(row.data(), static_cast<std::uint8_t>(rng.below(2)),
                     weighted ? static_cast<std::uint32_t>(1 + rng.below(3)) : 1u);
      }
      return part;
    };

    Dataset data(features);
    if (rng.chance(0.5)) data.reserve_deduplicated(rng.below(400));
    DedupOracle oracle;
    std::vector<Dataset> parts;
    for (int p = 0; p < 4; ++p) {
      parts.push_back(random_part(rng.below(150), p % 2 == 0));
      const Dataset& part = parts.back();
      for (std::size_t r = 0; r < part.num_rows(); ++r) {
        oracle.add(part.row(r), features, part.label(r), part.weight(r));
      }
      if (p % 2 == 1) {
        // Weight-1 rows straight from a row-major buffer.
        std::vector<std::int8_t> buffer;
        for (std::size_t r = 0; r < part.num_rows(); ++r) {
          buffer.insert(buffer.end(), part.row(r), part.row(r) + features);
        }
        data.add_deduplicated(buffer.data(), part.labels().data(), part.num_rows());
        Dataset via_dataset(features);
        via_dataset.add_deduplicated(part);
        Dataset via_buffer(features);
        via_buffer.add_deduplicated(buffer.data(), part.labels().data(), part.num_rows());
        DedupOracle one;
        for (std::size_t r = 0; r < part.num_rows(); ++r) {
          one.add(part.row(r), features, part.label(r), 1);
        }
        expect_matches_oracle(via_dataset, one.rows, one.weights);
        expect_matches_oracle(via_buffer, one.rows, one.weights);
      } else {
        data.add_deduplicated(part);
      }
      expect_matches_oracle(data, oracle.rows, oracle.weights);
    }

    // Buffer merges at the edges of the merge's 16-row hash blocks:
    // lengths below, at and past a block multiple; rows repeated up to
    // 15 rows later, so inside one block; and a fresh dataset with no
    // reservation, whose index grows in the middle of a block.
    for (const std::size_t rows : {std::size_t{15}, std::size_t{16}, std::size_t{17},
                                   std::size_t{31}, std::size_t{33}, 40 + rng.below(60)}) {
      std::vector<std::int8_t> buffer;
      std::vector<std::uint8_t> labels;
      std::vector<std::int8_t> row(features);
      for (std::size_t r = 0; r < rows; ++r) {
        if (r > 0 && rng.chance(0.4)) {
          const std::size_t from = r - 1 - rng.below(std::min<std::size_t>(r, 15));
          row.assign(buffer.begin() + static_cast<std::ptrdiff_t>(from * features),
                     buffer.begin() + static_cast<std::ptrdiff_t>((from + 1) * features));
          labels.push_back(labels[from]);
        } else {
          for (auto& v : row) v = static_cast<std::int8_t>(rng.range(-span, span));
          labels.push_back(static_cast<std::uint8_t>(rng.below(2)));
        }
        buffer.insert(buffer.end(), row.begin(), row.end());
      }
      DedupOracle one;
      for (std::size_t r = 0; r < rows; ++r) {
        one.add(buffer.data() + r * features, features, labels[r], 1);
        oracle.add(buffer.data() + r * features, features, labels[r], 1);
      }
      Dataset fresh(features);
      fresh.add_deduplicated(buffer.data(), labels.data(), rows);
      expect_matches_oracle(fresh, one.rows, one.weights);
      data.add_deduplicated(buffer.data(), labels.data(), rows);
      expect_matches_oracle(data, oracle.rows, oracle.weights);
    }

    // subtract_deduplicated: remaining weights in master order, rows at
    // zero omitted.
    const Dataset& held = parts[rng.below(parts.size())];
    std::vector<std::uint32_t> remaining = oracle.weights;
    for (std::size_t r = 0; r < held.num_rows(); ++r) {
      const DedupOracle::Key key{
          std::vector<std::int8_t>(held.row(r), held.row(r) + features), held.label(r)};
      remaining[oracle.index.at(key)] -= held.weight(r);
    }
    std::vector<DedupOracle::Key> kept_rows;
    std::vector<std::uint32_t> kept_weights;
    for (std::size_t r = 0; r < remaining.size(); ++r) {
      if (remaining[r] == 0) continue;
      kept_rows.push_back(oracle.rows[r]);
      kept_weights.push_back(remaining[r]);
    }
    expect_matches_oracle(data.subtract_deduplicated(held), kept_rows, kept_weights);

    // A row outside the value range is absent; a present row asks for
    // one more than its weight.
    Dataset stranger(features);
    std::vector<std::int8_t> outside(features, static_cast<std::int8_t>(span + 1));
    stranger.add_row(outside.data(), 0);
    EXPECT_THROW(data.subtract_deduplicated(stranger), Error);
    if (data.num_rows() > 0) {
      const std::size_t r = rng.below(data.num_rows());
      Dataset greedy(features);
      greedy.add_row(data.row(r), data.label(r), data.weight(r) + 1);
      EXPECT_THROW(data.subtract_deduplicated(greedy), Error);
    }
  }
}

TEST(Dataset, DeduplicationSeparatesTagCollisions) {
  // Two distinct rows whose hashes share the 32-bit tag and the home
  // slot of the smallest (16-slot) table: the index must tell them
  // apart by comparing the rows themselves.
  constexpr std::size_t kFeatures = 3;
  const auto row_of = [](std::uint32_t i) {
    return std::array<std::int8_t, kFeatures>{static_cast<std::int8_t>(i),
                                              static_cast<std::int8_t>(i >> 8),
                                              static_cast<std::int8_t>(i >> 16)};
  };
  const auto key_of = [&](std::uint32_t i) {
    const std::uint64_t h = Dataset::row_hash(row_of(i).data(), kFeatures, 0);
    return (h & 0xFFFFFFFF00000000ull) | (h & 15);
  };
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keys;
  for (std::uint32_t i = 0; i < (1u << 20); ++i) keys.emplace_back(key_of(i), i);
  std::sort(keys.begin(), keys.end());
  const auto same = std::adjacent_find(keys.begin(), keys.end(), [](const auto& a, const auto& b) {
    return a.first == b.first;
  });
  ASSERT_NE(same, keys.end()) << "no tag collision among 2^20 rows";
  const auto a = row_of(same->second);
  const auto b = row_of((same + 1)->second);

  Dataset data(kFeatures);
  Dataset part(kFeatures);
  part.add_row(a.data(), 0, 2);
  part.add_row(b.data(), 0, 3);
  part.add_row(a.data(), 0, 4);
  part.add_row(b.data(), 0, 5);
  data.add_deduplicated(part);
  ASSERT_EQ(data.num_rows(), 2u);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), data.row(0)));
  EXPECT_TRUE(std::equal(b.begin(), b.end(), data.row(1)));
  EXPECT_EQ(data.weight(0), 6u);
  EXPECT_EQ(data.weight(1), 8u);
  Dataset only_b(kFeatures);
  only_b.add_row(b.data(), 0, 8);
  const Dataset rest = data.subtract_deduplicated(only_b);
  ASSERT_EQ(rest.num_rows(), 1u);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), rest.row(0)));
  EXPECT_EQ(rest.weight(0), 6u);
}

TEST(ColumnView, SampledRowsCarryLabelsWeightsAndRange) {
  Dataset data(2);
  const std::int8_t r0[] = {-5, 1}, r1[] = {0, 2}, r2[] = {1, 1}, r3[] = {7, 0};
  data.add_row(r0, 0, 1);
  data.add_row(r1, 1, 2);
  data.add_row(r2, 0, 3);
  data.add_row(r3, 1, 4);
  const ColumnView full(data);
  EXPECT_EQ(full.min_value(), -5);
  EXPECT_EQ(full.max_value(), 7);
  EXPECT_EQ(ColumnView(Dataset(2)).min_value(), 0);  // empty view: {0, 0}
  EXPECT_EQ(ColumnView(Dataset(2)).max_value(), 0);
  const ColumnView some(data, {1, 2});
  ASSERT_EQ(some.num_rows(), 2u);
  EXPECT_EQ(some.column(0)[0], 0);
  EXPECT_EQ(some.column(0)[1], 1);
  EXPECT_EQ(some.column(1)[0], 2);
  EXPECT_EQ(some.label(0), 1);
  EXPECT_EQ(some.weight(1), 3u);
  EXPECT_EQ(some.min_value(), 0);
  EXPECT_EQ(some.max_value(), 2);
}

// The split search against an independent plain CART (test_support's
// reference_cart): every node record, over random trees that cover unit
// and large weights, value ranges up to the full int8 span, every
// max_features (also none and past the feature count), all-constant
// features that force the subset to grow, leaf-size and depth limits,
// and repeated or unordered rows.
TEST(DecisionTree, SplitSearchMatchesReferenceCart) {
  std::size_t full_span = 0, grown_subsets = 0, leaf_limits = 0, depth_caps = 0, repeats = 0,
              heavy = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::size_t features = 1 + rng.below(24);
    int lo = 0, hi = 0;
    switch (seed % 4) {
      case 0: lo = -128, hi = 127; break;
      case 1: lo = 0, hi = static_cast<int>(rng.below(3)); break;
      default:
        lo = static_cast<int>(rng.range(-128, 127));
        hi = std::min(127, lo + static_cast<int>(rng.below(40)));
    }
    // Constant columns: a node that draws only these must grow its
    // subset one feature at a time.
    std::vector<int> constant(features, -1000);
    for (int& c : constant) {
      if (rng.chance(0.4)) c = static_cast<int>(rng.range(lo, hi));
    }
    const std::uint32_t max_weight =
        seed % 3 == 0 ? 1u : seed % 3 == 1 ? 3u : std::uint32_t{1} << 28;
    heavy += max_weight > 3 ? 1 : 0;
    Dataset data(features);
    const std::size_t num_rows = 1 + rng.below(300);
    const std::size_t signal = rng.below(features);
    std::vector<std::int8_t> row(features);
    for (std::size_t r = 0; r < num_rows; ++r) {
      for (std::size_t f = 0; f < features; ++f) {
        row[f] = static_cast<std::int8_t>(constant[f] != -1000 ? constant[f] : rng.range(lo, hi));
      }
      const bool label = (row[signal] > (lo + hi) / 2) != rng.chance(0.2);
      data.add_row(row.data(), label ? 1 : 0,
                   static_cast<std::uint32_t>(1 + rng.below(max_weight)));
    }
    // A view over all rows or over an ascending subset of them.
    std::vector<std::uint32_t> subset;
    for (std::uint32_t r = 0; r < num_rows; ++r) {
      if (rng.chance(0.7)) subset.push_back(r);
    }
    if (subset.empty()) subset.push_back(0);
    const ColumnView view = rng.chance(0.5) ? ColumnView(data) : ColumnView(data, subset);
    std::vector<std::uint32_t> indices(view.num_rows());
    std::iota(indices.begin(), indices.end(), 0u);
    if (rng.chance(0.5)) {
      // Drawn with replacement, in draw order.
      for (std::uint32_t& i : indices) i = static_cast<std::uint32_t>(rng.below(view.num_rows()));
      repeats += 1;
    } else if (rng.chance(0.5)) {
      rng.shuffle(indices);
    }

    TreeParams params;
    const std::uint64_t mean_weight = (std::uint64_t{max_weight} + 1) / 2;
    if (rng.chance(0.3)) {
      params.max_depth = 1 + rng.below(6);
      depth_caps += 1;
    }
    if (rng.chance(0.3)) {
      params.min_samples_leaf = 1 + rng.below(4 * mean_weight);
      leaf_limits += params.min_samples_leaf > 1 ? 1 : 0;
    }
    if (rng.chance(0.3)) params.min_samples_split = 1 + rng.below(8 * mean_weight);
    const std::size_t choice = rng.below(10);
    params.max_features = choice == 0 ? 0 : choice == 1 ? features + rng.below(3)
                                                        : 1 + rng.below(features);
    full_span += view.max_value() - view.min_value() == 255 ? 1 : 0;
    const std::uint64_t tree_seed = rng.next();

    DecisionTree tree(params, tree_seed);
    tree.fit_indices(view, indices);
    const testing::ReferenceTree reference =
        testing::reference_cart(view, indices, params, tree_seed);
    const std::vector<DecisionTree::NodeRecord>& expected = reference.records;
    grown_subsets += reference.grown > 0 ? 1 : 0;
    ASSERT_EQ(tree.num_nodes(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const DecisionTree::NodeRecord a = tree.node_record(i);
      const DecisionTree::NodeRecord& b = expected[i];
      ASSERT_TRUE(a.left == b.left && a.right == b.right && a.feature == b.feature &&
                  a.threshold == b.threshold && a.count0 == b.count0 && a.count1 == b.count1)
          << "node " << i << ": left " << a.left << "/" << b.left << " right " << a.right << "/"
          << b.right << " feature " << a.feature << "/" << b.feature << " threshold "
          << int{a.threshold} << "/" << int{b.threshold} << " counts " << a.count0 << ","
          << a.count1 << "/" << b.count0 << "," << b.count1;
    }
  }
  // The generator covers every case named above.
  EXPECT_GE(full_span, 50u);
  EXPECT_GE(grown_subsets, 100u);
  EXPECT_GE(leaf_limits, 50u);
  EXPECT_GE(depth_caps, 50u);
  EXPECT_GE(repeats, 100u);
  EXPECT_GE(heavy, 100u);
}

// RandomForest transposes only the rows its trees drew. The forest must
// equal one whose trees, given the same draws and seeds, fit on a view
// of every row — whose value range is wider than the drawn rows'.
TEST(RandomForest, FitOverDrawnRowsEqualsFullTranspose) {
  Rng data_rng(61);
  Dataset data(10);
  for (int r = 0; r < 3000; ++r) {
    std::int8_t row[10];
    for (auto& v : row) v = static_cast<std::int8_t>(data_rng.range(0, 3));
    if (r < 2) row[r] = r == 0 ? -9 : 12;  // two outliers widen the full range
    data.add_row(row, (row[1] + row[4] > 3) != (row[7] == 2) ? 1 : 0,
                 static_cast<std::uint32_t>(1 + data_rng.below(3)));
  }
  const ColumnView full(data);
  ForestParams params;
  params.num_trees = 5;
  params.max_samples_per_tree = 100;
  params.seed = 11;
  params.jobs = 2;
  RandomForest forest(params);
  forest.fit(data);

  // grow()'s draw order: per tree, its row sample, then its seed.
  Rng rng(params.seed);
  TreeParams tp = params.tree;
  tp.max_features = 3;  // lround(sqrt(10))
  std::vector<std::uint32_t> drawn_rows;
  ASSERT_EQ(forest.trees().size(), params.num_trees);
  for (const DecisionTree& fitted : forest.trees()) {
    std::vector<std::uint32_t> indices;
    for (std::size_t i : rng.sample_indices(data.num_rows(), params.max_samples_per_tree)) {
      indices.push_back(static_cast<std::uint32_t>(i));
    }
    drawn_rows.insert(drawn_rows.end(), indices.begin(), indices.end());
    DecisionTree reference(tp, rng.next());
    reference.fit_indices(full, indices);
    ASSERT_EQ(fitted.num_nodes(), reference.num_nodes());
    for (std::size_t i = 0; i < fitted.num_nodes(); ++i) {
      const auto a = fitted.node_record(i);
      const auto b = reference.node_record(i);
      ASSERT_TRUE(a.left == b.left && a.right == b.right && a.feature == b.feature &&
                  a.threshold == b.threshold && a.count0 == b.count0 && a.count1 == b.count1)
          << "node " << i;
    }
  }
  // The premise: the drawn rows miss some of the extreme values.
  std::sort(drawn_rows.begin(), drawn_rows.end());
  drawn_rows.erase(std::unique(drawn_rows.begin(), drawn_rows.end()), drawn_rows.end());
  const ColumnView drawn(data, drawn_rows);
  EXPECT_TRUE(drawn.min_value() > full.min_value() || drawn.max_value() < full.max_value());
}

}  // namespace
}  // namespace caml
