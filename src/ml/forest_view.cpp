#include "ml/forest_view.hpp"

#include "ml/forest_walk.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/sigguard.hpp"

namespace caml {

namespace {

/// Node accessor over one packed tree (see ml/forest_walk.hpp).
struct PackedNodes {
  const MappedForest::TreeRef& tree;

  PackedNode node(std::size_t i) const {
    return decode_packed_node(tree.nodes + i * kPackedNodeBytes);
  }
  std::pair<std::uint64_t, std::uint64_t> votes(std::size_t i) const {
    return {read_u64(tree.count0 + i * 8), read_u64(tree.count1 + i * 8)};
  }
};

std::pair<std::uint64_t, std::uint64_t> leaf_votes(const MappedForest::TreeRef& tree,
                                                   const std::int8_t* row) {
  return walk_row(PackedNodes{tree}, row);
}

}  // namespace

void MappedForest::fit(const Dataset&) {
  throw Error("MappedForest is a read-only view over a mapped store and cannot be fitted");
}

/// Every traversal of the raw mapping runs under a SIGBUS guard: if the
/// backing file is truncated under us, the fault becomes a MappingFault
/// throw instead of killing the daemon. The guarded lambdas are
/// longjmp-safe by construction — plain reads and arithmetic into
/// storage allocated before the guard.
constexpr const char* kForestFault =
    "SIGBUS while traversing the mapped model store (backing file truncated or rewritten "
    "in place under the mapping)";

double MappedForest::predict_proba(const std::int8_t* row) const {
  CAML_ASSERT(!trees_.empty());
  double sum = 0.0;
  io::with_sigbus_guard(kForestFault, [&] {
    for (const TreeRef& tree : trees_) {
      const auto [c0, c1] = leaf_votes(tree, row);
      sum += soft_vote(c0, c1);
    }
  });
  return sum / static_cast<double>(trees_.size());
}

std::uint8_t MappedForest::predict(const std::int8_t* row) const {
  return predict_proba(row) >= 0.5 ? 1 : 0;
}

std::vector<double> MappedForest::predict_proba_batch(const std::int8_t* rows, std::size_t n,
                                                      std::size_t stride) const {
  CAML_ASSERT(!trees_.empty());
  CAML_TRACE_SPAN_ITEMS("predict", n);
  record_forest_batch(n);
  // Tree-major sweep with votes accumulated per row in tree order — the
  // exact summation RandomForest::predict_proba_batch performs, so the
  // probabilities (and therefore the labels) are bit-identical.
  std::vector<double> sum(n, 0.0);
  io::with_sigbus_guard(kForestFault, [&] {
    for (const TreeRef& tree : trees_) {
      for (std::size_t r = 0; r < n; ++r) {
        const auto [c0, c1] = leaf_votes(tree, rows + r * stride);
        sum[r] += soft_vote(c0, c1);
      }
    }
  });
  for (double& s : sum) s /= static_cast<double>(trees_.size());
  return sum;
}

std::vector<std::uint8_t> MappedForest::predict_batch(const std::int8_t* rows, std::size_t n,
                                                      std::size_t stride) const {
  const std::vector<double> proba = predict_proba_batch(rows, n, stride);
  std::vector<std::uint8_t> out(n);
  for (std::size_t r = 0; r < n; ++r) out[r] = proba[r] >= 0.5 ? 1 : 0;
  return out;
}

std::vector<double> MappedForest::predict_margin_batch(const std::int8_t* rows, std::size_t n,
                                                       std::size_t stride) const {
  CAML_ASSERT(!trees_.empty());
  // Mirrors RandomForest::predict_margin_batch expression for expression
  // (hard vote per tree, tree-order accumulation), so margins from a
  // mapped store are bit-identical to the text-loaded forest's.
  std::vector<double> vote1(n, 0.0);
  io::with_sigbus_guard(kForestFault, [&] {
    for (const TreeRef& tree : trees_) {
      for (std::size_t r = 0; r < n; ++r) {
        const auto [c0, c1] = leaf_votes(tree, rows + r * stride);
        vote1[r] += hard_vote(c0, c1);
      }
    }
  });
  const double trees = static_cast<double>(trees_.size());
  for (double& v : vote1) v = vote_margin(v, trees);
  return vote1;
}

ProductVotes MappedForest::predict_product(const ProductView& product) const {
  CAML_ASSERT(!trees_.empty());
  CAML_TRACE_SPAN_ITEMS("predict", product.num_rows());
  ProductWalk walk(product);  // every buffer allocated before the guard
  io::with_sigbus_guard(kForestFault, [&] {
    for (const TreeRef& tree : trees_) walk.add_tree(PackedNodes{tree});
  });
  return walk.finish(trees_.size());
}

}  // namespace caml
