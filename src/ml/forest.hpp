#pragma once

#include <iosfwd>

#include "ml/tree.hpp"

namespace caml {

struct LoadedForest;

struct ForestParams {
  std::size_t num_trees = 20;
  TreeParams tree;
  /// Per-tree row cap over distinct (deduplicated) rows; 0 = no cap.
  /// An uncapped tree fits every row; a capped one fits a fresh random
  /// subset of that many rows, drawn without replacement. Diversity
  /// otherwise comes from per-split feature subsampling only. With
  /// weighted dedup the full data is usually affordable, so the default
  /// is uncapped.
  std::size_t max_samples_per_tree = 0;
  /// max_features of 0 means sqrt(num_features), resolved at fit time.
  std::uint64_t seed = 0xF0535Dull;
  /// Worker threads for fit (0 = one per hardware thread, 1 = serial).
  /// The fitted forest is bit-identical for any value: all per-tree
  /// randomness is drawn serially from the single seed stream before the
  /// trees are fitted concurrently.
  std::size_t jobs = 0;
};

/// Random Forest: CART trees with per-split feature subsampling and
/// soft-vote aggregation (summed leaf class frequencies) — the paper's
/// classifier of choice.
class RandomForest : public Classifier {
 public:
  explicit RandomForest(ForestParams params = {}) : params_(params) {}

  void fit(const Dataset& data) override;

  /// Warm-start growth: fits `extra_trees` additional trees on `data`
  /// (typically the training pool enlarged since the last fit) and
  /// appends them to the ensemble — the incremental-retrain primitive of
  /// the active-learning loop. The increment's randomness comes from a
  /// fresh stream derived deterministically from (params.seed, current
  /// tree count), so repeated fit() + fit_more() sequences are
  /// bit-identical for any jobs value, and two runs that grow the forest
  /// through the same sizes draw the same trees.
  void fit_more(const Dataset& data, std::size_t extra_trees);

  /// Worker threads for later fit / fit_more calls (ForestParams::jobs).
  /// The fitted trees do not depend on it.
  void set_jobs(std::size_t jobs) { params_.jobs = jobs; }

  /// One row through the factored walk (a one-row predict_product).
  std::uint8_t predict(const std::int8_t* row) const override;
  std::string name() const override { return "RandomForest"; }

  /// Factored walk over a stimulus × defect product (ml/forest_walk.hpp):
  /// each tree is walked once instead of once per row. Per row, the soft
  /// votes (summed leaf class frequencies) and the hard votes for each
  /// tree's majority leaf class accumulate in tree order, so the answer
  /// is the same double for any batching, job count or store backend
  /// (MappedForest runs the same walk over its packed trees).
  ProductVotes predict_product(const ProductView& product) const override;

  const std::vector<DecisionTree>& trees() const { return trees_; }

  /// Rebuilds a forest from already-constructed trees — the import path
  /// shared by every non-text loader (e.g. the binary model store).
  /// Equivalent to what read_forest produces for the same trees.
  static RandomForest assemble(std::vector<DecisionTree> trees, std::size_t num_features);

  /// Feature count seen at fit time (0 before fit / after load without
  /// metadata).
  std::size_t num_features() const { return num_features_; }

  /// Mean Gini importance per feature across the trees (normalized to
  /// sum 1; empty before fit or after load).
  std::vector<double> feature_importance() const;

 private:
  friend LoadedForest read_forest(std::istream& in);
  void grow(const Dataset& data, std::size_t count, std::uint64_t seed);
  ForestParams params_;
  std::vector<DecisionTree> trees_;
  std::size_t num_features_ = 0;
};

}  // namespace caml
