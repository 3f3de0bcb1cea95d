#pragma once

#include <cstring>

#include "ml/classifier.hpp"
#include "ml/tree.hpp"

namespace caml {

/// Packed on-disk tree node: the PR 5 hot-traversal layout (left, right,
/// feature, threshold in 16 bytes) persisted verbatim, so a mapped store
/// walks trees with the same memory shape the in-memory kernel tuned
/// for. Field offsets are fixed (0/4/8/10, 5 zero pad bytes) and all
/// values little-endian-native; accessors go through memcpy so the
/// mapping may start at any byte alignment.
inline constexpr std::size_t kPackedNodeBytes = 16;

struct PackedNode {
  std::int32_t left = -1;
  std::int32_t right = -1;
  std::uint16_t feature = 0;
  std::int8_t threshold = 0;

  bool is_leaf() const { return left < 0; }
};

inline PackedNode decode_packed_node(const unsigned char* p) {
  PackedNode n;
  std::memcpy(&n.left, p, 4);
  std::memcpy(&n.right, p + 4, 4);
  std::memcpy(&n.feature, p + 8, 2);
  std::memcpy(&n.threshold, p + 10, 1);
  return n;
}

inline void encode_packed_node(const DecisionTree::NodeRecord& r, unsigned char* p) {
  std::memcpy(p, &r.left, 4);
  std::memcpy(p + 4, &r.right, 4);
  std::memcpy(p + 8, &r.feature, 2);
  std::memcpy(p + 10, &r.threshold, 1);
  std::memset(p + 11, 0, 5);
}

inline std::uint64_t read_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, 8);
  return v;
}

/// Random Forest over externally owned packed sections — the zero-copy
/// read side of the binary model store. Each tree is three raw spans
/// inside one read-only mapping (packed nodes, leaf count0[], leaf
/// count1[]); predict traverses them in place, no parse, no copy, no
/// ownership. It runs the same factored walk as RandomForest, so a
/// mapped store and a text-loaded store answer byte-identically
/// (enforced by tests/store_test.cpp).
///
/// Lifetime: the spans must outlive the view (MappedModelStore keeps the
/// mapping alive). Thread safety: predict is const over immutable bytes,
/// safe to share across serve workers like RandomForest.
class MappedForest final : public Classifier {
 public:
  struct TreeRef {
    const unsigned char* nodes = nullptr;   ///< node_count * 16 bytes
    const unsigned char* count0 = nullptr;  ///< node_count u64 leaf votes
    const unsigned char* count1 = nullptr;
    std::size_t node_count = 0;
  };

  MappedForest() = default;
  MappedForest(std::vector<TreeRef> trees, std::size_t num_features)
      : trees_(std::move(trees)), num_features_(num_features) {}

  /// Mapped forests are read-only snapshots; training them is a misuse.
  void fit(const Dataset&) override;

  /// One row through the factored walk (a one-row predict_product).
  std::uint8_t predict(const std::int8_t* row) const override;

  /// The factored walk RandomForest::predict_product runs, over the
  /// packed nodes; bit-identical to it.
  ProductVotes predict_product(const ProductView& product) const override;

  std::string name() const override { return "MappedForest"; }

  std::size_t num_trees() const { return trees_.size(); }
  std::size_t num_features() const { return num_features_; }
  const TreeRef& tree(std::size_t t) const { return trees_[t]; }

 private:
  std::vector<TreeRef> trees_;
  std::size_t num_features_ = 0;
};

}  // namespace caml
