#include "ml/tree.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <utility>

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

namespace {

/// Drawn features whose histograms one pass over a node's rows fills:
/// consecutive increments land in different histograms, so rows that
/// share a bucket do not wait on one counter's previous add.
constexpr std::size_t kFillWidth = 8;

/// Adds each node row's weight to slot `bucket * 2 + label` of the
/// histogram of each of the K columns (histogram k starts at
/// hist + k * slots). `packed[i]` is row `rows[i]`'s weight << 1 | label.
template <std::size_t K>
void fill_histograms(const std::int8_t* const* columns, int min_value,
                     const std::uint32_t* rows, const std::uint64_t* packed, std::size_t n,
                     std::uint64_t* hist, std::size_t slots) {
  const std::int8_t* col[K];
  for (std::size_t k = 0; k < K; ++k) col[k] = columns[k];
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t r = rows[i];
    const std::size_t label = packed[i] & 1;
    const std::uint64_t weight = packed[i] >> 1;
    for (std::size_t k = 0; k < K; ++k) {
      hist[k * slots + 2 * static_cast<std::size_t>(col[k][r] - min_value) + label] += weight;
    }
  }
}

template <std::size_t... K>
constexpr auto make_fills(std::index_sequence<K...>) {
  return std::array{&fill_histograms<K + 1>...};
}
/// kFills[k - 1] fills k histograms.
constexpr auto kFills = make_fills(std::make_index_sequence<kFillWidth>{});

}  // namespace

/// Split-search buffers of one fit_indices call, shared by all its
/// nodes and freed when the fit returns.
struct DecisionTree::SplitScratch {
  std::size_t num_features = 0;
  /// Of the view being fitted. A threshold outside the tree's own rows
  /// leaves one side empty and is skipped, so a wider range (a view
  /// over more rows) visits the same candidates.
  int min_value = 0;
  std::size_t buckets = 0;
  std::vector<std::uint16_t> feature_order;
  /// Per node row (node-relative position): weight << 1 | label.
  std::vector<std::uint64_t> packed;
  /// The right child's rows while a node's rows are partitioned.
  std::vector<std::uint32_t> right_rows;
  /// kFillWidth histograms of 2 * buckets slots each, all-zero between
  /// uses.
  std::vector<std::uint64_t> hist;
  /// One row of num_features flags per depth: row d marks the features
  /// known to have no valid split over the rows of the node at depth d
  /// being built.
  std::vector<std::uint8_t> unsplittable;

  /// Row `depth` of `unsplittable`, initialized from the parent's row
  /// (the root's is all clear).
  std::uint8_t* unsplittable_row(std::size_t depth) {
    if (unsplittable.size() < (depth + 1) * num_features) {
      unsplittable.resize((depth + 1) * num_features);
    }
    std::uint8_t* row = unsplittable.data() + depth * num_features;
    if (depth == 0) std::fill(row, row + num_features, std::uint8_t{0});
    else std::copy(row - num_features, row, row);
    return row;
  }
};

void DecisionTree::fit_indices(const ColumnView& columns, std::vector<std::uint32_t> indices) {
  CAML_ASSERT(!indices.empty());
  // Rows in ascending order make every histogram fill read the columns
  // front to back; the order of a node's rows cannot change its
  // (integer) histograms, so the tree is the same.
  if (!std::is_sorted(indices.begin(), indices.end())) std::sort(indices.begin(), indices.end());
  nodes_.clear();
  count0_.clear();
  count1_.clear();
  SplitScratch scratch;
  scratch.num_features = columns.num_features();
  scratch.min_value = columns.min_value();
  scratch.buckets = static_cast<std::size_t>(columns.max_value() - columns.min_value()) + 1;
  scratch.feature_order.resize(scratch.num_features);
  scratch.packed.resize(indices.size());
  scratch.right_rows.resize(indices.size());
  scratch.hist.assign(kFillWidth * 2 * scratch.buckets, 0u);
  importance_.assign(scratch.num_features, 0.0);
  build(columns, indices, 0, indices.size(), 0, scratch);
  double total = 0.0;
  for (double v : importance_) total += v;
  if (total > 0.0) {
    for (double& v : importance_) v /= total;
  }
}

std::int32_t DecisionTree::build(const ColumnView& columns, std::vector<std::uint32_t>& indices,
                                 std::size_t begin, std::size_t end, std::size_t depth,
                                 SplitScratch& scratch) {
  // One read of each row's label and weight per node; every feature's
  // fill below reads the packed word instead.
  std::uint64_t* packed = scratch.packed.data();
  std::uint64_t node_count[2] = {0, 0};
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t r = indices[i];
    const std::uint64_t w = columns.weight(r);
    const std::uint64_t label = columns.label(r) != 0;
    packed[i - begin] = w << 1 | label;
    node_count[label] += w;
  }
  const std::uint64_t node_count0 = node_count[0], node_count1 = node_count[1];
  const std::uint64_t n = node_count0 + node_count1;
  const std::int32_t id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(Node{});
  count0_.push_back(node_count0);
  count1_.push_back(node_count1);

  const bool pure = node_count0 == 0 || node_count1 == 0;
  if (pure || depth >= params_.max_depth || n < params_.min_samples_split) return id;

  // Histogram-based split search over a (possibly random) feature set.
  const std::size_t num_features = scratch.num_features;
  const std::size_t buckets = scratch.buckets;
  const std::size_t slots = 2 * buckets;
  std::uint16_t* feature_order = scratch.feature_order.data();
  std::iota(feature_order, feature_order + num_features, static_cast<std::uint16_t>(0));
  std::size_t features_to_try = num_features;
  if (params_.max_features > 0 && params_.max_features < num_features) {
    // Partial shuffle: first max_features entries become a random subset.
    for (std::size_t i = 0; i < params_.max_features; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng_.below(static_cast<std::uint64_t>(num_features - i)));
      std::swap(feature_order[i], feature_order[j]);
    }
    features_to_try = params_.max_features;
  }
  // A feature with no valid threshold over this node's rows (it is
  // constant, or every threshold leaves less than min_samples_leaf on a
  // side) has none over a descendant's rows either, as those are a
  // subset: neither this node nor a descendant fills it.
  std::uint8_t* unsplittable = scratch.unsplittable_row(depth);

  const double total = static_cast<double>(n);
  double best_gini = 2.0;  // anything real is < 1
  std::uint16_t best_feature = 0;
  std::int8_t best_threshold = 0;
  bool found = false;

  std::uint64_t* hist = scratch.hist.data();
  // Fills the histograms of features[0, k) in one pass over the rows,
  // then scans them in that (draw) order and clears them.
  const auto search = [&](const std::uint16_t* features, std::size_t k) {
    const std::int8_t* cols[kFillWidth];
    for (std::size_t j = 0; j < k; ++j) cols[j] = columns.column(features[j]);
    const std::uint32_t* rows = indices.data() + begin;
    const std::size_t count = end - begin;
    const int min_value = scratch.min_value;
    kFills[k - 1](cols, min_value, rows, packed, count, hist, slots);
    for (std::size_t j = 0; j < k; ++j) {
      const std::uint64_t* h = hist + j * slots;
      // Prefix scan: threshold after bucket b sends values <= b left.
      std::uint64_t l0 = 0, l1 = 0;
      bool valid = false;  // some threshold leaves enough rows on both sides
      for (std::size_t b = 0; b + 1 < buckets; ++b) {
        l0 += h[2 * b];
        l1 += h[2 * b + 1];
        const std::uint64_t left = l0 + l1;
        const std::uint64_t right = n - left;
        if (left < params_.min_samples_leaf || right < params_.min_samples_leaf) continue;
        if (left == 0 || right == 0) continue;
        valid = true;
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
          best_feature = features[j];
          best_threshold = static_cast<std::int8_t>(static_cast<int>(b) + min_value);
          found = true;
        }
      }
      if (!valid) unsplittable[features[j]] = 1;
    }
    std::fill(hist, hist + k * slots, std::uint64_t{0});
  };
  // The drawn features, kFillWidth histograms per pass over the rows.
  std::uint16_t batch[kFillWidth];
  std::size_t batched = 0;
  for (std::size_t fi = 0; fi < features_to_try; ++fi) {
    if (unsplittable[feature_order[fi]]) continue;
    batch[batched++] = feature_order[fi];
    if (batched == kFillWidth) {
      search(batch, batched);
      batched = 0;
    }
  }
  if (batched > 0) search(batch, batched);
  // Like scikit-learn, keep inspecting features past max_features until
  // at least one valid split was found; stopping early on an
  // all-constant sample would create impure leaves for rows that a
  // remaining feature separates perfectly. The random subset grows one
  // feature at a time, so no draw is made once a split exists.
  for (std::size_t fi = features_to_try; fi < num_features && !found; ++fi) {
    const std::size_t j =
        fi + static_cast<std::size_t>(rng_.below(static_cast<std::uint64_t>(num_features - fi)));
    std::swap(feature_order[fi], feature_order[j]);
    if (!unsplittable[feature_order[fi]]) search(feature_order + fi, 1);
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
  // Stable partition: both children keep their rows ascending.
  std::uint32_t* right_rows = scratch.right_rows.data();
  std::size_t mid = begin, num_right = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t r = indices[i];
    if (best_col[r] <= best_threshold) indices[mid++] = r;
    else right_rows[num_right++] = r;
  }
  std::copy(right_rows, right_rows + num_right, indices.data() + mid);
  CAML_ASSERT(mid > begin && mid < end);

  nodes_[static_cast<std::size_t>(id)].feature = best_feature;
  nodes_[static_cast<std::size_t>(id)].threshold = best_threshold;
  const std::int32_t left = build(columns, indices, begin, mid, depth + 1, scratch);
  nodes_[static_cast<std::size_t>(id)].left = left;
  const std::int32_t right = build(columns, indices, mid, end, depth + 1, scratch);
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
