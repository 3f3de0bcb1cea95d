#include "ml/tree.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace caml {

std::vector<std::uint8_t> ProductVotes::labels() const {
  std::vector<std::uint8_t> out(proba.size());
  for (std::size_t r = 0; r < proba.size(); ++r) out[r] = proba[r] >= 0.5 ? 1 : 0;
  return out;
}

ProductVotes Classifier::predict_product(const ProductView& product) const {
  const std::size_t n = product.num_rows();
  ProductVotes votes{std::vector<double>(n), std::vector<double>(n, 1.0)};
  for (std::size_t r = 0; r < n; ++r) votes.proba[r] = predict(product.rows + r * product.stride);
  return votes;
}

std::vector<std::uint8_t> Classifier::predict_batch(const std::int8_t* rows, std::size_t n,
                                                    std::size_t stride) const {
  return predict_product(ProductView::row_block(rows, n, stride)).labels();
}

std::vector<std::uint8_t> Classifier::predict_all(const Dataset& data) const {
  return predict_batch(data.row(0), data.num_rows(), data.num_features());
}

void DecisionTree::fit(const Dataset& data) {
  std::vector<std::uint32_t> indices(data.num_rows());
  std::iota(indices.begin(), indices.end(), 0u);
  fit_indices(ColumnView(data), std::move(indices));
}

void DecisionTree::fit_indices(const ColumnView& columns, std::vector<std::uint32_t> indices) {
  CAML_ASSERT(!indices.empty());
  nodes_.clear();
  count0_.clear();
  count1_.clear();
  num_features_ = columns.num_features();
  importance_.assign(num_features_, 0.0);
  // The view's value range bounds every row the tree reads. A threshold
  // outside the tree's own rows leaves one side empty and is skipped, so
  // a wider range (a view over more rows) visits the same candidates.
  min_value_ = columns.min_value();
  const std::size_t buckets = static_cast<std::size_t>(columns.max_value() - min_value_) + 1;
  feature_order_.resize(num_features_);
  // Invariant across build() nodes: the histograms are all-zero on entry
  // to every split search — each search clears exactly the buckets it
  // touched (see touched_ below) instead of sweeping the full range.
  hist0_.assign(buckets, 0u);
  hist1_.assign(buckets, 0u);
  touched_.reserve(buckets);
  build(columns, indices, 0, indices.size(), 0);
  double total = 0.0;
  for (double v : importance_) total += v;
  if (total > 0.0) {
    for (double& v : importance_) v /= total;
  }
}

std::int32_t DecisionTree::build(const ColumnView& columns, std::vector<std::uint32_t>& indices,
                                 std::size_t begin, std::size_t end, std::size_t depth) {
  std::uint64_t node_count0 = 0, node_count1 = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t w = columns.weight(indices[i]);
    if (columns.label(indices[i])) node_count1 += w;
    else node_count0 += w;
  }
  const std::uint64_t n = node_count0 + node_count1;
  const std::int32_t id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(Node{});
  count0_.push_back(node_count0);
  count1_.push_back(node_count1);

  const bool pure = node_count0 == 0 || node_count1 == 0;
  if (pure || depth >= params_.max_depth || n < params_.min_samples_split) return id;

  // Histogram-based split search over a (possibly random) feature set.
  const std::size_t buckets = hist0_.size();
  std::vector<std::uint16_t>& feature_order = feature_order_;
  std::iota(feature_order.begin(), feature_order.end(), static_cast<std::uint16_t>(0));
  std::size_t features_to_try = num_features_;
  if (params_.max_features > 0 && params_.max_features < num_features_) {
    // Partial shuffle: first max_features entries become a random subset.
    for (std::size_t i = 0; i < params_.max_features; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng_.below(static_cast<std::uint64_t>(num_features_ - i)));
      std::swap(feature_order[i], feature_order[j]);
    }
    features_to_try = params_.max_features;
  }

  const double total = static_cast<double>(n);
  double best_gini = 2.0;  // anything real is < 1
  std::uint16_t best_feature = 0;
  std::int8_t best_threshold = 0;
  bool found = false;

  std::vector<std::uint64_t>& hist0 = hist0_;
  std::vector<std::uint64_t>& hist1 = hist1_;
  for (std::size_t fi = 0; fi < num_features_; ++fi) {
    // Like scikit-learn, keep inspecting features past max_features
    // until at least one valid split was found; stopping early on an
    // all-constant sample would create impure leaves for rows that a
    // remaining feature separates perfectly.
    if (fi >= features_to_try && found) break;
    if (fi >= features_to_try) {
      // Extend the random subset one feature at a time.
      const std::size_t j = fi + static_cast<std::size_t>(
                                     rng_.below(static_cast<std::uint64_t>(num_features_ - fi)));
      std::swap(feature_order[fi], feature_order[j]);
    }
    const std::uint16_t f = feature_order[fi];
    const std::int8_t* col = columns.column(f);
    touched_.clear();
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t r = indices[i];
      const std::size_t b = static_cast<std::size_t>(col[r] - min_value_);
      if ((hist0[b] | hist1[b]) == 0) touched_.push_back(static_cast<std::uint32_t>(b));
      const std::uint32_t w = columns.weight(r);
      if (columns.label(r)) hist1[b] += w;
      else hist0[b] += w;
    }
    // Prefix scan: threshold after bucket b sends values <= b left.
    std::uint64_t l0 = 0, l1 = 0;
    for (std::size_t b = 0; b + 1 < buckets; ++b) {
      l0 += hist0[b];
      l1 += hist1[b];
      const std::uint64_t left = l0 + l1;
      const std::uint64_t right = n - left;
      if (left < params_.min_samples_leaf || right < params_.min_samples_leaf) continue;
      if (left == 0 || right == 0) continue;
      const double dl0 = static_cast<double>(l0);
      const double dl1 = static_cast<double>(l1);
      const double r0 = static_cast<double>(node_count0 - l0);
      const double r1 = static_cast<double>(node_count1 - l1);
      const double dleft = static_cast<double>(left);
      const double dright = static_cast<double>(right);
      const double gl = 1.0 - (dl0 * dl0 + dl1 * dl1) / (dleft * dleft);
      const double gr = 1.0 - (r0 * r0 + r1 * r1) / (dright * dright);
      const double gini = (dleft * gl + dright * gr) / total;
      if (gini < best_gini) {
        best_gini = gini;
        best_feature = f;
        best_threshold = static_cast<std::int8_t>(static_cast<int>(b) + min_value_);
        found = true;
      }
    }
    // Restore the all-zero invariant by clearing only the buckets this
    // node's rows actually landed in — a node spanning few distinct
    // values no longer pays for the full value range.
    for (const std::uint32_t b : touched_) {
      hist0[b] = 0;
      hist1[b] = 0;
    }
  }
  // No valid split means every row is identical on every feature (or
  // leaf-size limits forbid all partitions): an honest mixed leaf.
  // Zero-gain splits are deliberately accepted — XOR-shaped label
  // patterns have no single-feature gain yet separate perfectly two
  // levels down (scikit-learn behaves the same way).
  if (!found) return id;

  // Gini importance: weighted impurity decrease of the chosen split.
  {
    const double p0 = static_cast<double>(node_count0) / total;
    const double p1 = static_cast<double>(node_count1) / total;
    const double parent_gini = 1.0 - p0 * p0 - p1 * p1;
    importance_[best_feature] += total * std::max(0.0, parent_gini - best_gini);
  }

  const std::int8_t* best_col = columns.column(best_feature);
  const auto mid_it =
      std::partition(indices.begin() + static_cast<std::ptrdiff_t>(begin),
                     indices.begin() + static_cast<std::ptrdiff_t>(end),
                     [&](std::uint32_t r) { return best_col[r] <= best_threshold; });
  const std::size_t mid = static_cast<std::size_t>(mid_it - indices.begin());
  CAML_ASSERT(mid > begin && mid < end);

  nodes_[static_cast<std::size_t>(id)].feature = best_feature;
  nodes_[static_cast<std::size_t>(id)].threshold = best_threshold;
  const std::int32_t left = build(columns, indices, begin, mid, depth + 1);
  nodes_[static_cast<std::size_t>(id)].left = left;
  const std::int32_t right = build(columns, indices, mid, end, depth + 1);
  nodes_[static_cast<std::size_t>(id)].right = right;
  return id;
}

std::uint8_t DecisionTree::predict(const std::int8_t* row) const {
  const auto [c0, c1] = leaf_votes(row);
  return c1 > c0 ? 1 : 0;
}

std::pair<std::uint64_t, std::uint64_t> DecisionTree::leaf_votes(const std::int8_t* row) const {
  CAML_ASSERT(!nodes_.empty());
  std::size_t at = 0;
  while (!nodes_[at].is_leaf()) {
    const Node& node = nodes_[at];
    at = static_cast<std::size_t>(row[node.feature] <= node.threshold ? node.left : node.right);
  }
  return {count0_[at], count1_[at]};
}

std::size_t DecisionTree::depth() const {
  // Iterative depth computation over the implicit tree.
  std::vector<std::pair<std::size_t, std::size_t>> stack{{0, 1}};
  std::size_t best = 0;
  while (!stack.empty()) {
    const auto [at, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    const Node& node = nodes_[at];
    if (!node.is_leaf()) {
      stack.push_back({static_cast<std::size_t>(node.left), d + 1});
      stack.push_back({static_cast<std::size_t>(node.right), d + 1});
    }
  }
  return best;
}

}  // namespace caml
