#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "ml/classifier.hpp"

namespace caml {

/// The forest evaluation shared by RandomForest (DecisionTree nodes)
/// and MappedForest (packed nodes in a mapped store). Both hand it a
/// node accessor:
///   nodes.node(i)  -> a node with left, right, feature, threshold and
///                     is_leaf(); a row goes left iff
///                     row[feature] <= threshold;
///   nodes.votes(i) -> the leaf's weighted {count0, count1}.
/// Keeping the vote arithmetic here too is what makes the backends
/// answer bit-identically.

/// Soft vote of a leaf: its class-1 frequency. A leaf with no recorded
/// votes (possible in loaded forests) casts a neutral 0.5 instead of
/// poisoning the average with 0/0 = NaN.
inline double soft_vote(std::uint64_t c0, std::uint64_t c1) {
  const std::uint64_t votes = c0 + c1;
  return votes == 0 ? 0.5 : static_cast<double>(c1) / static_cast<double>(votes);
}

/// Hard vote of a leaf for class 1: one vote for its majority class,
/// half a vote each way on a tie or an empty leaf.
inline double hard_vote(std::uint64_t c0, std::uint64_t c1) {
  return c1 > c0 ? 1.0 : (c1 == c0 ? 0.5 : 0.0);
}

/// Hard-vote disagreement margin |2 * vote1 / trees - 1|.
inline double vote_margin(double vote1, double trees) {
  return std::abs(2.0 * vote1 / trees - 1.0);
}

/// Factored forest evaluation over a stimulus × defect product.
///
/// Every split tests one column, so it partitions either the stimulus
/// set or the defect set, never both. add_tree walks a tree once,
/// carrying a (stimulus range, defect range) rectangle of two index
/// arrays; a split partitions one of the ranges in place, and a leaf
/// adds its soft and hard vote to all |S'|·|D'| rows of its rectangle.
/// Each row reaches exactly one leaf per tree, and trees are added in
/// order, so every row sums the same doubles in the same order as a
/// walk of that row alone: probabilities and margins are bit-identical
/// for any product shape, and ProductView::row_block makes the walk the
/// plain row-by-row one.
///
/// The constructor allocates every buffer; add_tree allocates nothing
/// (it recurses, bounded by the tree depth), so it may run under
/// io::with_sigbus_guard.
class ProductWalk {
 public:
  explicit ProductWalk(const ProductView& product);

  template <class Nodes>
  void add_tree(const Nodes& nodes) {
    if (product_.num_rows() == 0) return;
    descend(nodes, 0, Rect{0, product_.stimuli, 0, product_.defects});
  }

  /// Turns the vote sums of `num_trees` added trees into probabilities
  /// and margins.
  ProductVotes finish(std::size_t num_trees);

 private:
  /// Stimuli stimuli_[s0, s1) × defects defects_[d0, d1).
  struct Rect {
    std::size_t s0, s1, d0, d1;
  };

  template <class Nodes>
  void descend(const Nodes& nodes, std::size_t at, Rect rect) {
    for (;;) {
      const auto node = nodes.node(at);
      if (node.is_leaf()) {
        const auto [c0, c1] = nodes.votes(at);
        scatter(soft_vote(c0, c1), hard_vote(c0, c1), rect);
        return;
      }
      const bool on_stimulus = node.feature < product_.prefix;
      std::uint32_t* const index = on_stimulus ? stimuli_.data() : defects_.data();
      const std::size_t lo = on_stimulus ? rect.s0 : rect.d0;
      const std::size_t hi = on_stimulus ? rect.s1 : rect.d1;
      // Stimulus s's value sits in row s, defect d's in row d·S.
      const std::int8_t* const column = product_.rows + node.feature;
      const std::size_t step =
          on_stimulus ? product_.stride : product_.stimuli * product_.stride;
      const std::int8_t threshold = node.threshold;
      const std::size_t mid = static_cast<std::size_t>(
          std::partition(index + lo, index + hi,
                         [&](std::uint32_t i) { return column[i * step] <= threshold; }) -
          index);
      Rect high = rect;
      (on_stimulus ? high.s0 : high.d0) = mid;
      if (mid == hi) {  // every index goes left
        at = static_cast<std::size_t>(node.left);
        continue;
      }
      if (mid > lo) {
        Rect low = rect;
        (on_stimulus ? low.s1 : low.d1) = mid;
        descend(nodes, static_cast<std::size_t>(node.left), low);
      }
      at = static_cast<std::size_t>(node.right);
      rect = high;
    }
  }

  void scatter(double soft, double hard, const Rect& rect);

  ProductView product_;
  std::vector<std::uint32_t> stimuli_;
  std::vector<std::uint32_t> defects_;
  std::vector<double> sum_;    ///< soft votes per product row
  std::vector<double> vote1_;  ///< hard votes for class 1 per product row
};

}  // namespace caml
