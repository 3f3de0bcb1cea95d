#include <gtest/gtest.h>

#include <sstream>

#include "ml/forest_io.hpp"
#include "ml/metrics.hpp"
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
  for (std::size_t r = 0; r < 20; ++r) {
    EXPECT_DOUBLE_EQ(loaded.forest.predict_proba(test.row(r)),
                     forest.predict_proba(test.row(r)));
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
