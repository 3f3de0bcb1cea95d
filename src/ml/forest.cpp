#include "ml/forest.hpp"

#include <cmath>

#include "ml/forest_walk.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/timing.hpp"

namespace caml {

namespace {

/// Per-tree fit latency feeds the profile of training runs (the
/// inference counters live with the traversal kernels, forest_walk.cpp).
obs::Histogram& tree_fit_us() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "caml_forest_tree_fit_us", "Per-tree fit latency in microseconds");
  return h;
}

}  // namespace

void RandomForest::grow(const Dataset& data, std::size_t count, std::uint64_t seed) {
  CAML_TRACE_SPAN_ITEMS("forest_fit", count);
  CAML_ASSERT(data.num_rows() > 0);
  num_features_ = data.num_features();
  Rng rng(seed);

  TreeParams tp = params_.tree;
  if (tp.max_features == 0) {
    tp.max_features = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<double>(data.num_features()))));
    tp.max_features = std::max<std::size_t>(tp.max_features, 1);
  }
  std::size_t sample = data.num_rows();
  if (params_.max_samples_per_tree > 0) {
    sample = std::min(sample, params_.max_samples_per_tree);
  }

  // All per-tree randomness (subset indices, then the tree's
  // split-sampling seed) is drawn serially from the single Rng stream in
  // the exact order the serial loop used, so the fitted forest is
  // bit-identical for any thread count.
  const std::size_t first = trees_.size();
  std::vector<std::vector<std::uint32_t>> draws(count);
  trees_.reserve(first + count);
  for (std::size_t t = 0; t < count; ++t) {
    std::vector<std::uint32_t>& indices = draws[t];
    if (sample < data.num_rows()) {
      // Capped: random subset without replacement, fresh per tree.
      for (std::size_t i : rng.sample_indices(data.num_rows(), sample)) {
        indices.push_back(static_cast<std::uint32_t>(i));
      }
    } else {
      indices.resize(data.num_rows());
      for (std::size_t i = 0; i < indices.size(); ++i) {
        indices[i] = static_cast<std::uint32_t>(i);
      }
    }
    trees_.emplace_back(tp, rng.next());
  }
  // One column-major transpose shared by every tree, over only the rows
  // some tree drew: the histogram fill of the split search walks
  // contiguous feature columns instead of strided rows, and capped trees
  // never pay for the rows no tree samples. Each tree's draw is remapped
  // to view rows; its order is kept, so the fit is unchanged.
  const ColumnView columns = [&] {
    if (sample == data.num_rows()) return ColumnView(data);
    constexpr std::uint32_t kUndrawn = ~std::uint32_t{0};
    std::vector<std::uint32_t> position(data.num_rows(), kUndrawn);
    for (const std::vector<std::uint32_t>& indices : draws) {
      for (const std::uint32_t i : indices) position[i] = 0;
    }
    std::vector<std::uint32_t> rows;
    for (std::size_t r = 0; r < position.size(); ++r) {
      if (position[r] == kUndrawn) continue;
      position[r] = static_cast<std::uint32_t>(rows.size());
      rows.push_back(static_cast<std::uint32_t>(r));
    }
    for (std::vector<std::uint32_t>& indices : draws) {
      for (std::uint32_t& i : indices) i = position[i];
    }
    return ColumnView(data, rows);
  }();
  // Trees only read the shared columns and mutate their own state, so
  // the fits are independent.
  parallel_for(count, params_.jobs, [&](std::size_t t) {
    const Stopwatch watch;
    trees_[first + t].fit_indices(columns, std::move(draws[t]));
    tree_fit_us().record(
        static_cast<std::uint64_t>(std::max<std::int64_t>(watch.elapsed_us(), 0)));
  });
}

void RandomForest::fit(const Dataset& data) {
  trees_.clear();
  grow(data, params_.num_trees, params_.seed);
}

void RandomForest::fit_more(const Dataset& data, std::size_t extra_trees) {
  if (extra_trees == 0) return;
  CAML_ASSERT(trees_.empty() || data.num_features() == num_features_);
  // The increment seed folds the current ensemble size into the base
  // seed (splitmix64-style odd multiplier), so each growth step draws a
  // fresh stream yet any two runs growing through the same sizes draw
  // identical trees.
  const std::uint64_t seed =
      params_.seed ^ (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(trees_.size() + 1));
  grow(data, extra_trees, seed);
}

RandomForest RandomForest::assemble(std::vector<DecisionTree> trees,
                                    std::size_t num_features) {
  CAML_ASSERT(!trees.empty());
  RandomForest forest;
  forest.trees_ = std::move(trees);
  forest.num_features_ = num_features;
  return forest;
}

std::uint8_t RandomForest::predict(const std::int8_t* row) const {
  return predict_product(ProductView::row_block(row, 1, 0)).labels()[0];
}

ProductVotes RandomForest::predict_product(const ProductView& product) const {
  CAML_ASSERT(!trees_.empty());
  CAML_TRACE_SPAN_ITEMS("predict", product.num_rows());
  ProductWalk walk(product);
  for (const DecisionTree& tree : trees_) walk.add_tree(tree.nodes());
  return walk.finish(trees_.size());
}

std::vector<double> RandomForest::feature_importance() const {
  std::vector<double> out(num_features_, 0.0);
  std::size_t contributing = 0;
  for (const DecisionTree& tree : trees_) {
    const std::vector<double>& imp = tree.feature_importance();
    if (imp.size() != out.size()) continue;  // e.g. loaded trees
    ++contributing;
    for (std::size_t f = 0; f < out.size(); ++f) out[f] += imp[f];
  }
  if (contributing > 0) {
    for (double& v : out) v /= static_cast<double>(contributing);
  }
  return out;
}

}  // namespace caml
