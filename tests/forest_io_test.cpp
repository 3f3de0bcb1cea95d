#include <gtest/gtest.h>

#include <sstream>

#include "ml/forest_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace caml {
namespace {

Dataset make_data(std::size_t rows, Rng& rng) {
  Dataset data(5);
  for (std::size_t r = 0; r < rows; ++r) {
    std::int8_t row[5];
    for (auto& v : row) v = static_cast<std::int8_t>(rng.range(-2, 3));
    data.add_row(row, (row[0] > 0 && row[2] <= 1) ? 1 : 0);
  }
  return data;
}

TEST(ForestIo, RoundTripPreservesPredictions) {
  Rng rng(31);
  const Dataset train = make_data(1500, rng);
  const Dataset test = make_data(300, rng);
  ForestParams params;
  params.num_trees = 8;
  RandomForest forest(params);
  forest.fit(train);

  std::stringstream buffer;
  write_forest(buffer, forest, train.num_features());
  const LoadedForest loaded = read_forest(buffer);
  EXPECT_EQ(loaded.num_features, train.num_features());
  EXPECT_EQ(loaded.forest.trees().size(), forest.trees().size());
  EXPECT_EQ(loaded.forest.predict_all(test), forest.predict_all(test));
  const auto proba = [&](const RandomForest& f, std::size_t r) {
    return f.predict_product(ProductView::row_block(test.row(r), 1, test.num_features()))
        .proba.at(0);
  };
  for (std::size_t r = 0; r < 20; ++r) {
    EXPECT_DOUBLE_EQ(proba(loaded.forest, r), proba(forest, r));
  }
}

TEST(ForestIo, RejectsMalformedInput) {
  std::istringstream junk("JUNK\n");
  EXPECT_THROW(read_forest(junk), ParseError);
  std::istringstream truncated("FOREST trees=2 features=3\nTREE nodes=1\n-1 -1 0 0 1 1\n");
  EXPECT_THROW(read_forest(truncated), ParseError);
  std::istringstream bad_child("FOREST trees=1 features=3\nTREE nodes=1\n5 6 0 0 1 1\nENDFOREST\n");
  EXPECT_THROW(read_forest(bad_child), ParseError);
}

// Corrupt numeric tokens must surface as ParseError (with line context),
// never as the uncaught std::invalid_argument / std::out_of_range that
// std::stoul-family parsing aborts with.
TEST(ForestIo, RejectsCorruptNumericTokens) {
  std::istringstream bad_trees("FOREST trees=x features=3\n");
  EXPECT_THROW(read_forest(bad_trees), ParseError);
  std::istringstream empty_features("FOREST trees=1 features=\n");
  EXPECT_THROW(read_forest(empty_features), ParseError);
  std::istringstream overflow("FOREST trees=99999999999999999999999 features=3\n");
  EXPECT_THROW(read_forest(overflow), ParseError);
  std::istringstream bad_node_count("FOREST trees=1 features=3\nTREE nodes=1q\n");
  EXPECT_THROW(read_forest(bad_node_count), ParseError);
  std::istringstream bad_node_field(
      "FOREST trees=1 features=3\nTREE nodes=1\n-1 -1 zz 0 1 1\nENDFOREST\n");
  EXPECT_THROW(read_forest(bad_node_field), ParseError);
  std::istringstream negative_count(
      "FOREST trees=1 features=3\nTREE nodes=1\n-1 -1 0 0 -4 1\nENDFOREST\n");
  EXPECT_THROW(read_forest(negative_count), ParseError);
}

// A forest without trees cannot classify, so the text reader rejects it
// up front, as the binary store reader does ("group declares zero
// trees"), instead of handing back a store that fails at predict time.
TEST(ForestIo, RejectsZeroTreeForest) {
  std::istringstream empty("FOREST trees=0 features=3\nENDFOREST\n");
  EXPECT_THROW(read_forest(empty), ParseError);
}

// Structural rules of the binary store's full verify, applied by both
// tree loaders: a node whose child points back at itself or an ancestor
// would send predict() round a cycle forever, so it must fail to load.
TEST(ForestIo, RejectsTreesThatDoNotPointForward) {
  const auto forest_text = [](const std::string& nodes, std::size_t count) {
    return "FOREST trees=1 features=3\nTREE nodes=" + std::to_string(count) + "\n" + nodes +
           "ENDFOREST\n";
  };
  const std::string leaves = "-1 -1 0 0 1 0\n-1 -1 0 0 0 1\n";
  std::istringstream valid(forest_text("1 2 2 0 1 1\n" + leaves, 3));
  EXPECT_NO_THROW(read_forest(valid));
  std::istringstream self_loop(forest_text("0 2 2 0 1 1\n" + leaves, 3));
  EXPECT_THROW(read_forest(self_loop), ParseError);
  std::istringstream back_edge(forest_text("1 2 2 0 1 1\n0 2 1 0 1 0\n-1 -1 0 0 0 1\n", 3));
  EXPECT_THROW(read_forest(back_edge), ParseError);
  std::istringstream one_child(forest_text("1 -1 2 0 1 1\n" + leaves, 3));
  EXPECT_THROW(read_forest(one_child), ParseError);
  std::istringstream bad_feature(forest_text("1 2 3 0 1 1\n" + leaves, 3));
  EXPECT_THROW(read_forest(bad_feature), ParseError);

  using Record = DecisionTree::NodeRecord;
  const Record leaf{-1, -1, 0, 0, 1, 0};
  EXPECT_NO_THROW(DecisionTree::from_records({Record{1, 2, 2, 0, 1, 1}, leaf, leaf}, 3));
  EXPECT_THROW(DecisionTree::from_records({Record{0, 2, 2, 0, 1, 1}, leaf, leaf}, 3),
               ParseError);
  EXPECT_THROW(DecisionTree::from_records({Record{1, -1, 2, 0, 1, 1}, leaf, leaf}, 3),
               ParseError);
  EXPECT_THROW(DecisionTree::from_records({Record{1, 2, 3, 0, 1, 1}, leaf, leaf}, 3),
               ParseError);
}

// The reported case: a trained store whose first root is edited to
// `left=0` used to load and then hang the first prediction.
TEST(ForestIo, SelfLoopInTrainedForestFailsToLoad) {
  Rng rng(35);
  const Dataset train = make_data(400, rng);
  ForestParams params;
  params.num_trees = 2;
  RandomForest forest(params);
  forest.fit(train);
  std::ostringstream os;
  write_forest(os, forest, train.num_features());
  const std::string text = os.str();
  const std::size_t root = text.find('\n', text.find("TREE nodes=")) + 1;
  ASSERT_NE(text.compare(root, 2, "-1"), 0) << "first tree must have split";
  std::istringstream in(text.substr(0, root).append("0").append(text, text.find(' ', root)));
  EXPECT_THROW(read_forest(in), ParseError);
}

TEST(ForestIo, NumFeaturesTrackedAtFit) {
  Rng rng(33);
  const Dataset train = make_data(100, rng);
  RandomForest forest;
  EXPECT_EQ(forest.num_features(), 0u);
  forest.fit(train);
  EXPECT_EQ(forest.num_features(), 5u);
}

}  // namespace
}  // namespace caml
