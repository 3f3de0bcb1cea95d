#pragma once

#include <iosfwd>

#include "ml/classifier.hpp"
#include "util/rng.hpp"

namespace caml {

/// CART decision-tree hyperparameters shared with the forest.
struct TreeParams {
  std::size_t max_depth = 64;
  /// Weighted-sample thresholds (duplicated rows count with their
  /// dedup weight, matching scikit-learn sample_weight semantics).
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Features examined per split: 0 = all, otherwise a random subset of
  /// this size (set by the forest to sqrt(F)).
  std::size_t max_features = 0;
};

/// CART decision tree with Gini impurity, specialized for small-integer
/// features: split search uses per-value counting (O(rows + values))
/// instead of sorting.
class DecisionTree : public Classifier {
 public:
  explicit DecisionTree(TreeParams params = {}, std::uint64_t seed = 1)
      : params_(params), rng_(seed) {}

  void fit(const Dataset& data) override;

  /// Fit on a subset of the rows of a column-major view (the forest's
  /// per-tree sample; `indices` are view rows and may repeat). Labels,
  /// weights and the feature value range all come from the view, which
  /// RandomForest::fit builds once and shares across all trees.
  void fit_indices(const ColumnView& columns, std::vector<std::uint32_t> indices);

  std::uint8_t predict(const std::int8_t* row) const override;
  std::string name() const override { return "DecisionTree"; }

  /// Weighted votes of the leaf the row lands in: {count0, count1}.
  std::pair<std::uint64_t, std::uint64_t> leaf_votes(const std::int8_t* row) const;

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t depth() const;

  /// Flat-node serialization used by the forest I/O (ml/forest_io.hpp).
  void save(std::ostream& os) const;
  /// load() and from_records() reject (caml::ParseError) an empty tree,
  /// a child index outside the tree, an internal node whose children do
  /// not both come after it (a cycle or a missing child would hang or
  /// crash traversal) and a split feature >= num_features.
  static DecisionTree load(std::istream& in, std::size_t& line_no, std::size_t num_features);

  /// One flat node in serialization order — exactly the six fields the
  /// text format carries, so every store format (text lines, packed
  /// binary sections) round-trips through the same record.
  struct NodeRecord {
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::uint16_t feature = 0;
    std::int8_t threshold = 0;
    std::uint64_t count0 = 0;
    std::uint64_t count1 = 0;
  };
  NodeRecord node_record(std::size_t i) const;

  /// Rebuilds a tree from flat records (the binary-store import path),
  /// with the same structural checks as the text loader.
  static DecisionTree from_records(const std::vector<NodeRecord>& records,
                                   std::size_t num_features);

  /// Gini importance per feature (weighted impurity decrease summed over
  /// this tree's splits, normalized to sum 1; all-zero when the tree is
  /// a single leaf or was loaded from disk).
  const std::vector<double>& feature_importance() const { return importance_; }

 private:
  /// Hot traversal record: exactly the fields predict()/leaf_votes()
  /// touch while walking the tree, padded to 16 bytes so four nodes share
  /// a cache line and the node array stays SoA-friendly. The cold leaf
  /// vote counts live in the parallel count0_/count1_ arrays and are read
  /// only once per lookup, at the leaf.
  struct alignas(16) Node {
    // Internal node: feature/threshold with children; leaf: children -1.
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::uint16_t feature = 0;
    std::int8_t threshold = 0;  // go left iff value <= threshold
    bool is_leaf() const { return left < 0; }
  };
  static_assert(sizeof(Node) == 16, "hot node record must stay 16 bytes");

 public:
  /// Node accessor of the shared traversal kernels (ml/forest_walk.hpp).
  class Nodes {
   public:
    explicit Nodes(const DecisionTree& tree)
        : nodes_(tree.nodes_.data()),
          count0_(tree.count0_.data()),
          count1_(tree.count1_.data()) {}
    const Node& node(std::size_t i) const { return nodes_[i]; }
    std::pair<std::uint64_t, std::uint64_t> votes(std::size_t i) const {
      return {count0_[i], count1_[i]};
    }

   private:
    const Node* nodes_;
    const std::uint64_t* count0_;
    const std::uint64_t* count1_;
  };
  Nodes nodes() const { return Nodes(*this); }

 private:
  struct SplitScratch;
  std::int32_t build(const ColumnView& columns, std::vector<std::uint32_t>& indices,
                     std::size_t begin, std::size_t end, std::size_t depth,
                     SplitScratch& scratch);

  TreeParams params_;
  Rng rng_;
  std::vector<Node> nodes_;
  // Weighted leaf votes, parallel to nodes_ (cold fields, SoA layout).
  std::vector<std::uint64_t> count0_;
  std::vector<std::uint64_t> count1_;
  std::vector<double> importance_;
};

}  // namespace caml
