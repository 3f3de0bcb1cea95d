// Oracle for the factored forest walk (ml/forest_walk.hpp):
// Classifier::predict_product over a stimulus × defect product must
// equal an independent per-row referee over the materialized rows bit
// for bit — probabilities and margins as hexfloat, labels byte for
// byte — for RandomForest and MappedForest, over hundreds of seeded
// random forests and product shapes, and for real CA-matrices. The
// same rows as a one-defect row block, as a predict_batch and one by
// one through predict must give the same answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "camatrix/canonical.hpp"
#include "defect/universe.hpp"
#include "flow/ml_flow.hpp"
#include "ml/forest.hpp"
#include "ml/forest_view.hpp"
#include "ml/knn.hpp"
#include "ml/linear.hpp"
#include "obs/metrics.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace caml {
namespace {

using Records = std::vector<DecisionTree::NodeRecord>;
using testing::hexfloats;

/// Which columns a random tree may split on.
enum class Columns { kAny, kStimulusOnly, kDefectOnly };

struct TreeShape {
  std::size_t features = 0;
  std::size_t prefix = 0;  ///< stimulus columns
  Columns columns = Columns::kAny;
  std::size_t max_depth = 0;
  double leaf_chance = 0.25;
};

/// Appends a random subtree in preorder (children after their parent, as
/// trained and stored trees are laid out); returns its root index.
std::int32_t grow(Records& out, Rng& rng, const TreeShape& shape, std::size_t depth) {
  const auto id = static_cast<std::int32_t>(out.size());
  out.emplace_back();
  std::size_t lo = 0, hi = shape.features;
  if (shape.columns == Columns::kStimulusOnly) hi = shape.prefix;
  if (shape.columns == Columns::kDefectOnly) lo = shape.prefix;
  if (lo == hi || depth >= shape.max_depth || rng.chance(shape.leaf_chance)) {
    // Leaf votes include ties and, one leaf in eight, no votes at all
    // (the neutral 0.5 of a loaded forest).
    if (!rng.chance(0.125)) {
      out[id].count0 = rng.below(5);
      out[id].count1 = rng.below(5);
    }
    return id;
  }
  out[id].feature = static_cast<std::uint16_t>(lo + rng.below(hi - lo));
  out[id].threshold = static_cast<std::int8_t>(rng.range(-2, 2));
  const std::int32_t left = grow(out, rng, shape, depth + 1);
  const std::int32_t right = grow(out, rng, shape, depth + 1);
  out[id].left = left;
  out[id].right = right;
  return id;
}

/// One set of trees as both backends: an in-memory RandomForest and a
/// MappedForest over packed bytes this object owns.
struct TwoBackends {
  RandomForest forest;
  std::vector<std::vector<unsigned char>> bytes;  ///< nodes, count0, count1 per tree
  MappedForest mapped;

  TwoBackends(const std::vector<Records>& trees, std::size_t features) {
    std::vector<DecisionTree> built;
    for (const Records& records : trees) {
      built.push_back(DecisionTree::from_records(records, features));
    }
    forest = RandomForest::assemble(std::move(built), features);
    for (const Records& records : trees) {
      std::vector<unsigned char> nodes(records.size() * kPackedNodeBytes);
      std::vector<unsigned char> count0(records.size() * 8), count1(records.size() * 8);
      for (std::size_t i = 0; i < records.size(); ++i) {
        encode_packed_node(records[i], nodes.data() + i * kPackedNodeBytes);
        std::memcpy(count0.data() + i * 8, &records[i].count0, 8);
        std::memcpy(count1.data() + i * 8, &records[i].count1, 8);
      }
      bytes.push_back(std::move(nodes));
      bytes.push_back(std::move(count0));
      bytes.push_back(std::move(count1));
    }
    std::vector<MappedForest::TreeRef> refs;
    for (std::size_t t = 0; t < trees.size(); ++t) {
      refs.push_back({bytes[3 * t].data(), bytes[3 * t + 1].data(), bytes[3 * t + 2].data(),
                      trees[t].size()});
    }
    mapped = MappedForest(std::move(refs), features);
  }
};

/// A materialized product: row d·S + s is stimulus s's prefix followed
/// by defect d's columns.
struct Product {
  std::size_t features = 0, prefix = 0, stimuli = 0, defects = 0;
  std::vector<std::int8_t> rows;

  Product(Rng& rng, std::size_t f, std::size_t p, std::size_t s, std::size_t d)
      : features(f), prefix(p), stimuli(s), defects(d), rows(f * s * d) {
    std::vector<std::int8_t> stim(s * p), def(d * (f - p));
    for (std::int8_t& v : stim) v = static_cast<std::int8_t>(rng.range(-2, 3));
    for (std::int8_t& v : def) v = static_cast<std::int8_t>(rng.range(-2, 3));
    for (std::size_t di = 0; di < d; ++di) {
      for (std::size_t si = 0; si < s; ++si) {
        std::int8_t* row = rows.data() + (di * s + si) * f;
        std::copy_n(stim.data() + si * p, p, row);
        std::copy_n(def.data() + di * (f - p), f - p, row + p);
      }
    }
  }

  ProductView view() const { return {rows.data(), features, prefix, stimuli, defects}; }
};

/// `forest`'s factored walk against the per-row referee over the trees
/// of `source` (the forest itself, or the one a mapped forest came
/// from), over the same materialized rows.
void expect_parity(const Classifier& forest, const RandomForest& source,
                   const ProductView& product, const std::string& what) {
  const std::size_t n = product.num_rows();
  const ProductVotes want = testing::row_wise_votes(source, product.rows, n, product.stride);
  const ProductVotes votes = forest.predict_product(product);
  ASSERT_EQ(votes.proba.size(), n) << what;
  ASSERT_EQ(votes.margin.size(), n) << what;
  EXPECT_EQ(hexfloats(votes.proba), hexfloats(want.proba)) << forest.name() << ' ' << what;
  EXPECT_EQ(hexfloats(votes.margin), hexfloats(want.margin)) << forest.name() << ' ' << what;
  const ProductVotes block =
      forest.predict_product(ProductView::row_block(product.rows, n, product.stride));
  EXPECT_EQ(hexfloats(block.proba), hexfloats(want.proba))
      << forest.name() << " row block " << what;
  EXPECT_EQ(hexfloats(block.margin), hexfloats(want.margin))
      << forest.name() << " row block " << what;
  EXPECT_EQ(forest.predict_batch(product.rows, n, product.stride), want.labels())
      << forest.name() << ' ' << what;
  std::vector<std::uint8_t> one_by_one;
  for (std::size_t r = 0; r < n; ++r) {
    one_by_one.push_back(forest.predict(product.rows + r * product.stride));
  }
  EXPECT_EQ(one_by_one, want.labels()) << forest.name() << ' ' << what;
}

/// Both backends of one set of trees against the referee.
void expect_parity(const TwoBackends& backends, const ProductView& product,
                   const std::string& what) {
  expect_parity(backends.forest, backends.forest, product, what);
  expect_parity(backends.mapped, backends.forest, product, what);
}

TEST(ForestWalk, FactoredEqualsRowWiseOnRandomForestsAndShapes) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    const std::size_t features = 1 + rng.below(16);
    const std::size_t prefix = rng.below(features + 1);  // 0 and all-stimulus included
    // Every seventh shape has one stimulus, every seventh (offset) one defect.
    const std::size_t stimuli = seed % 7 == 0 ? 1 : 1 + rng.below(12);
    const std::size_t defects = seed % 7 == 3 ? 1 : 1 + rng.below(12);
    TreeShape shape;
    shape.features = features;
    shape.prefix = prefix;
    shape.columns = static_cast<Columns>(seed % 3);
    shape.max_depth = 1 + rng.below(8);
    std::vector<Records> trees(1 + rng.below(6));
    for (Records& tree : trees) grow(tree, rng, shape, 0);
    const TwoBackends backends(trees, features);
    const Product product(rng, features, prefix, stimuli, defects);
    const std::string what = "seed " + std::to_string(seed) + " F=" + std::to_string(features) +
                             " P=" + std::to_string(prefix) + " S=" + std::to_string(stimuli) +
                             " D=" + std::to_string(defects);
    expect_parity(backends, product.view(), what);
    if (::testing::Test::HasFailure()) return;  // one diagnosis is enough
  }
}

TEST(ForestWalk, SingleLeafAndZeroVoteTrees) {
  // A single-leaf tree with no votes casts 0.5 on every row; a second
  // single-leaf tree breaks the tie. Both shapes S=1 and D=1 included.
  Records empty_leaf(1);
  Records positive_leaf(1);
  positive_leaf[0].count0 = 1;
  positive_leaf[0].count1 = 3;
  Rng rng(7);
  for (const auto& [s, d] : {std::pair<std::size_t, std::size_t>{1, 1}, {1, 5}, {4, 1}, {3, 2}}) {
    const Product product(rng, 4, 2, s, d);
    const TwoBackends neutral({empty_leaf}, 4);
    const ProductVotes votes = neutral.forest.predict_product(product.view());
    EXPECT_EQ(votes.proba, std::vector<double>(s * d, 0.5));
    EXPECT_EQ(votes.margin, std::vector<double>(s * d, 0.0));
    expect_parity(neutral, product.view(), "neutral leaf");
    const TwoBackends mixed({empty_leaf, positive_leaf, empty_leaf}, 4);
    expect_parity(mixed, product.view(), "mixed leaves");
  }
}

TEST(ForestWalk, EmptyProductYieldsNoRows) {
  Records leaf(1);
  const TwoBackends backends({leaf}, 3);
  const ProductView none{nullptr, 3, 1, 4, 0};
  EXPECT_TRUE(backends.forest.predict_product(none).proba.empty());
  EXPECT_TRUE(backends.mapped.predict_product(none).margin.empty());
}

TEST(ForestWalk, FeedsTheForestRowCounterWithTheProductSize) {
  obs::Counter& rows = obs::Registry::global().counter("caml_forest_rows_predicted_total");
  Rng rng(3);
  Records leaf(1);
  const TwoBackends backends({leaf}, 5);
  const Product product(rng, 5, 3, 6, 7);
  const std::uint64_t before = rows.value();
  backends.forest.predict_product(product.view());
  backends.mapped.predict_product(product.view());
  EXPECT_EQ(rows.value() - before, 2u * 6u * 7u);
}

/// Prepared prediction of a real cell under `options`.
PreparedPrediction prepare(const Cell& cell, const MatrixOptions& options) {
  return prepare_prediction(cell, canonicalize(cell), StimulusPolicy::kExhaustivePairs,
                            SimConfig{}, options, enumerate_defects(cell));
}

TEST(ForestWalk, CaMatrixIsTheProductItsViewDescribes) {
  MatrixOptions options;
  options.include_defect_kind = true;
  const Cell cell = testing::make_nand2();
  const PreparedPrediction prepared = prepare(cell, options);
  const ProductView product = prepared.product();
  // The KIND column is last and belongs to the defect.
  EXPECT_EQ(prepared.matrix.column_names().back(), "KIND");
  EXPECT_EQ(product.prefix, product.stride - 4 * cell.num_transistors() - 1);
  ASSERT_EQ(product.num_rows(), prepared.matrix.num_rows());
  for (std::size_t d = 0; d < product.defects; ++d) {
    for (std::size_t s = 0; s < product.stimuli; ++s) {
      const std::int8_t* row = prepared.matrix.row(d * product.stimuli + s);
      const std::int8_t* stimulus = product.rows + s * product.stride;
      const std::int8_t* defect = product.rows + d * product.stimuli * product.stride;
      ASSERT_TRUE(std::equal(row, row + product.prefix, stimulus));
      ASSERT_TRUE(std::equal(row + product.prefix, row + product.stride, defect + product.prefix));
    }
  }
}

TEST(ForestWalk, KindColumnSplitsPartitionDefects) {
  // Random trees over a real CA-matrix with the defect-kind column; every
  // tree's root splits on KIND (hard open 1 vs short 2), so both sides
  // of the defect partition are walked.
  MatrixOptions options;
  options.include_defect_kind = true;
  const PreparedPrediction prepared = prepare(testing::make_nand2(), options);
  const ProductView product = prepared.product();
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    TreeShape shape;
    shape.features = product.stride;
    shape.prefix = product.prefix;
    shape.max_depth = 1 + rng.below(6);
    std::vector<Records> trees(1 + rng.below(4));
    for (Records& tree : trees) {
      tree.emplace_back();
      tree[0].feature = static_cast<std::uint16_t>(product.stride - 1);
      tree[0].threshold = 1;
      tree[0].left = grow(tree, rng, shape, 1);
      tree[0].right = grow(tree, rng, shape, 1);
    }
    const TwoBackends backends(trees, product.stride);
    expect_parity(backends, product, "KIND seed " + std::to_string(seed));
  }
}

TEST(ForestWalk, TrainedForestOnRealCellsWithAndWithoutKind) {
  const testing::SmallCorpus corpus = testing::make_small_corpus();
  for (const bool kind : {false, true}) {
    MlOptions ml;
    ml.forest.num_trees = 6;
    ml.forest.jobs = 1;
    ml.matrix.include_defect_kind = kind;
    const GroupMap groups = group_cells(corpus.train);
    for (const auto& [key, members] : groups) {
      std::vector<const CharacterizedCell*> train;
      for (const std::size_t m : members) train.push_back(&corpus.train[m]);
      RandomForest forest(ml.forest);
      forest.fit(build_training_set(train, ml));
      for (const CharacterizedCell& target : corpus.eval) {
        if (GroupKey{target.num_inputs(), target.num_transistors()} != key) continue;
        const PreparedPrediction prepared = prepare(target.source.cell, ml.matrix);
        expect_parity(forest, forest, prepared.product(),
                      target.source.cell.name() + (kind ? " +KIND" : ""));
      }
    }
  }
}

TEST(ForestWalk, KnnAndLinearUseTheRowWiseDefault) {
  Rng rng(11);
  Dataset data(6);
  for (std::size_t r = 0; r < 200; ++r) {
    std::int8_t row[6];
    for (std::int8_t& v : row) v = static_cast<std::int8_t>(rng.range(-2, 3));
    data.add_row(row, row[1] + row[4] > 1 ? 1 : 0);
  }
  const Product product(rng, 6, 4, 5, 9);
  const ProductView view = product.view();
  KnnClassifier knn;
  LogisticClassifier logistic;
  for (Classifier* c : {static_cast<Classifier*>(&knn), static_cast<Classifier*>(&logistic)}) {
    c->fit(data);
    const ProductVotes votes = c->predict_product(view);
    std::vector<std::uint8_t> labels;
    for (std::size_t r = 0; r < view.num_rows(); ++r) {
      labels.push_back(c->predict(view.rows + r * view.stride));
    }
    EXPECT_EQ(votes.labels(), labels) << c->name();
    EXPECT_EQ(c->predict_batch(view.rows, view.num_rows(), view.stride), labels) << c->name();
    EXPECT_EQ(votes.proba, std::vector<double>(labels.begin(), labels.end())) << c->name();
    EXPECT_EQ(votes.margin, std::vector<double>(view.num_rows(), 1.0)) << c->name();
  }
}

}  // namespace
}  // namespace caml
