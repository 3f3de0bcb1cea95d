#include "ml/forest_io.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace caml {

namespace {

/// Structural rules shared by every tree loader (the binary store's full
/// verify applies the same): children lie inside the tree, an internal
/// node has both children strictly after itself — so every walk ends at
/// a leaf — and splits on a feature the forest was trained with.
/// Returns the violation, or nullptr for a valid node.
const char* node_violation(std::size_t index, std::int32_t left, std::int32_t right,
                           std::uint16_t feature, std::size_t count, std::size_t num_features) {
  const auto max = static_cast<std::int64_t>(count);
  if (left >= max || right >= max) return "tree node child out of range";
  if (left < 0) return nullptr;  // leaf
  const auto self = static_cast<std::int64_t>(index);
  if (left <= self || right <= self) return "tree node child does not point forward";
  if (feature >= num_features) return "tree node feature index out of range";
  return nullptr;
}

}  // namespace

void DecisionTree::save(std::ostream& os) const {
  os << "TREE nodes=" << nodes_.size() << '\n';
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    os << n.left << ' ' << n.right << ' ' << n.feature << ' ' << static_cast<int>(n.threshold)
       << ' ' << count0_[i] << ' ' << count1_[i] << '\n';
  }
}

DecisionTree DecisionTree::load(std::istream& in, std::size_t& line_no,
                                std::size_t num_features) {
  std::string line;
  if (!std::getline(in, line)) throw ParseError("expected TREE header", line_no);
  ++line_no;
  const std::vector<std::string> head = split(line);
  if (head.size() != 2 || head[0] != "TREE" || head[1].rfind("nodes=", 0) != 0) {
    throw ParseError("bad TREE header '" + line + "'", line_no);
  }
  const std::size_t count = parse_size(head[1].substr(6), "TREE node count", line_no);
  DecisionTree tree;
  const std::size_t reserve = std::min<std::size_t>(count, 1 << 20);
  tree.nodes_.reserve(reserve);
  tree.count0_.reserve(reserve);
  tree.count1_.reserve(reserve);
  for (std::size_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) throw ParseError("truncated tree", line_no);
    ++line_no;
    const std::vector<std::string> tok = split(line);
    if (tok.size() != 6) throw ParseError("bad tree node line '" + line + "'", line_no);
    Node n;
    n.left = static_cast<std::int32_t>(parse_int64(tok[0], "tree node left child", line_no));
    n.right = static_cast<std::int32_t>(parse_int64(tok[1], "tree node right child", line_no));
    n.feature = static_cast<std::uint16_t>(parse_uint64(tok[2], "tree node feature", line_no));
    n.threshold = static_cast<std::int8_t>(parse_int64(tok[3], "tree node threshold", line_no));
    if (const char* violation =
            node_violation(i, n.left, n.right, n.feature, count, num_features)) {
      throw ParseError(violation, line_no);
    }
    tree.nodes_.push_back(n);
    tree.count0_.push_back(parse_uint64(tok[4], "tree node count0", line_no));
    tree.count1_.push_back(parse_uint64(tok[5], "tree node count1", line_no));
  }
  if (tree.nodes_.empty()) throw ParseError("empty tree", line_no);
  return tree;
}

DecisionTree::NodeRecord DecisionTree::node_record(std::size_t i) const {
  CAML_ASSERT(i < nodes_.size());
  const Node& n = nodes_[i];
  return NodeRecord{n.left, n.right, n.feature, n.threshold, count0_[i], count1_[i]};
}

DecisionTree DecisionTree::from_records(const std::vector<NodeRecord>& records,
                                        std::size_t num_features) {
  if (records.empty()) throw ParseError("empty tree", 0);
  DecisionTree tree;
  tree.nodes_.reserve(records.size());
  tree.count0_.reserve(records.size());
  tree.count1_.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const NodeRecord& r = records[i];
    if (const char* violation =
            node_violation(i, r.left, r.right, r.feature, records.size(), num_features)) {
      throw ParseError(violation, 0);
    }
    Node n;
    n.left = r.left;
    n.right = r.right;
    n.feature = r.feature;
    n.threshold = r.threshold;
    tree.nodes_.push_back(n);
    tree.count0_.push_back(r.count0);
    tree.count1_.push_back(r.count1);
  }
  return tree;
}

void write_forest(std::ostream& os, const RandomForest& forest, std::size_t num_features) {
  os << "FOREST trees=" << forest.trees().size() << " features=" << num_features << '\n';
  for (const DecisionTree& tree : forest.trees()) tree.save(os);
  os << "ENDFOREST\n";
}

LoadedForest read_forest(std::istream& in) {
  std::size_t line_no = 0;
  std::string line;
  if (!std::getline(in, line)) throw ParseError("expected FOREST header", line_no);
  ++line_no;
  const std::vector<std::string> head = split(line);
  if (head.size() != 3 || head[0] != "FOREST" || head[1].rfind("trees=", 0) != 0 ||
      head[2].rfind("features=", 0) != 0) {
    throw ParseError("bad FOREST header '" + line + "'", line_no);
  }
  LoadedForest out;
  const std::size_t trees = parse_size(head[1].substr(6), "FOREST tree count", line_no);
  if (trees == 0) throw ParseError("FOREST declares zero trees", line_no);
  out.num_features = parse_size(head[2].substr(9), "FOREST feature count", line_no);
  out.forest.num_features_ = out.num_features;
  for (std::size_t t = 0; t < trees; ++t) {
    out.forest.trees_.push_back(DecisionTree::load(in, line_no, out.num_features));
  }
  if (!std::getline(in, line) || trim(line) != "ENDFOREST") {
    throw ParseError("missing ENDFOREST", line_no);
  }
  return out;
}

}  // namespace caml
