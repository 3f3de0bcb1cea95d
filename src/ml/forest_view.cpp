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

std::uint8_t MappedForest::predict(const std::int8_t* row) const {
  return predict_product(ProductView::row_block(row, 1, 0)).labels()[0];
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
