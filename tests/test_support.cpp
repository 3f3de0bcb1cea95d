#include "test_support.hpp"

#include <map>
#include <numeric>
#include <sstream>

#include "ml/forest_walk.hpp"
#include "util/error.hpp"

namespace caml::testing {

Cell make_nand2() {
  Cell cell("NAND2_FIG4");
  const NetId a = cell.add_net("A", NetKind::kInput);
  const NetId b = cell.add_net("B", NetKind::kInput);
  const NetId z = cell.add_net("Z", NetKind::kOutput);
  const NetId vdd = cell.add_net("VDD", NetKind::kPower);
  const NetId vss = cell.add_net("VSS", NetKind::kGround);
  const NetId net0 = cell.add_net("net0", NetKind::kInternal);
  // NMOS stack: Z - N10(A) - net0 - N11(B) - VSS.
  cell.add_transistor({"N10", MosType::kNmos, z, a, net0, vss, 0.4, 0.03});
  cell.add_transistor({"N11", MosType::kNmos, net0, b, vss, vss, 0.4, 0.03});
  // PMOS pair: Px(A), Py(B) both Z - VDD.
  cell.add_transistor({"Px", MosType::kPmos, z, a, vdd, vdd, 0.6, 0.03});
  cell.add_transistor({"Py", MosType::kPmos, z, b, vdd, vdd, 0.6, 0.03});
  cell.validate();
  return cell;
}

Cell make_nor2() {
  Cell cell("NOR2_T");
  const NetId a = cell.add_net("A", NetKind::kInput);
  const NetId b = cell.add_net("B", NetKind::kInput);
  const NetId z = cell.add_net("Z", NetKind::kOutput);
  const NetId vdd = cell.add_net("VDD", NetKind::kPower);
  const NetId vss = cell.add_net("VSS", NetKind::kGround);
  const NetId mid = cell.add_net("mid", NetKind::kInternal);
  cell.add_transistor({"MN0", MosType::kNmos, z, a, vss, vss, 0.4, 0.03});
  cell.add_transistor({"MN1", MosType::kNmos, z, b, vss, vss, 0.4, 0.03});
  cell.add_transistor({"MP0", MosType::kPmos, z, a, mid, vdd, 0.8, 0.03});
  cell.add_transistor({"MP1", MosType::kPmos, mid, b, vdd, vdd, 0.8, 0.03});
  cell.validate();
  return cell;
}

Cell make_fig5_cell() {
  Cell cell("FIG5");
  const NetId a = cell.add_net("A", NetKind::kInput);
  const NetId b = cell.add_net("B", NetKind::kInput);
  const NetId c = cell.add_net("C", NetKind::kInput);
  const NetId d = cell.add_net("D", NetKind::kInput);
  const NetId z = cell.add_net("Z", NetKind::kOutput);
  const NetId vdd = cell.add_net("VDD", NetKind::kPower);
  const NetId vss = cell.add_net("VSS", NetKind::kGround);
  const NetId y = cell.add_net("Y", NetKind::kInternal);
  const NetId m = cell.add_net("m", NetKind::kInternal);
  const NetId pm1 = cell.add_net("pm1", NetKind::kInternal);
  const NetId pm2 = cell.add_net("pm2", NetKind::kInternal);
  // NMOS branch driving Y: (N0(A) & (N1(B) | N2(C))) | N3(D).
  cell.add_transistor({"N0", MosType::kNmos, y, a, m, vss, 0.4, 0.03});
  cell.add_transistor({"N1", MosType::kNmos, m, b, vss, vss, 0.4, 0.03});
  cell.add_transistor({"N2", MosType::kNmos, m, c, vss, vss, 0.4, 0.03});
  cell.add_transistor({"N3", MosType::kNmos, y, d, vss, vss, 0.4, 0.03});
  // Complementary PMOS network (dual): (P0(A) | (P1(B) & P2(C))) & P3(D).
  cell.add_transistor({"P3", MosType::kPmos, y, d, pm1, vdd, 0.8, 0.03});
  cell.add_transistor({"P0", MosType::kPmos, pm1, a, vdd, vdd, 0.8, 0.03});
  cell.add_transistor({"P1", MosType::kPmos, pm1, b, pm2, vdd, 0.8, 0.03});
  cell.add_transistor({"P2", MosType::kPmos, pm2, c, vdd, vdd, 0.8, 0.03});
  // Output inverter: Y -> Z.
  cell.add_transistor({"Ninv", MosType::kNmos, z, y, vss, vss, 0.4, 0.03});
  cell.add_transistor({"Pinv", MosType::kPmos, z, y, vdd, vdd, 0.8, 0.03});
  cell.validate();
  return cell;
}

LibraryCell build_function(const std::string& function, const Technology& tech,
                           const DriveSpec& drive, std::uint64_t seed) {
  Rng rng(seed);
  LibraryCell lc;
  lc.cell = build_cell(find_function(function), tech, drive, FlavorSpec{"", 1.0},
                       function + "X" + std::to_string(drive.drive) +
                           variant_suffix(drive.variant),
                       rng);
  lc.function = function;
  lc.technology = tech.name;
  lc.drive = drive.drive;
  lc.variant = drive.variant;
  return lc;
}

CharacterizedCell characterize(const LibraryCell& cell, const Technology& tech) {
  return characterize_cell(cell, tech, CharacterizeOptions{});
}

SmallCorpus make_small_corpus() {
  const Technology soi = technology_28soi();
  const Technology c28 = technology_c28();

  LibraryComposition train_comp;
  train_comp.functions = {"NAND2", "NOR2", "AOI21", "OAI21"};
  train_comp.drives = {{1, StructureVariant::kWide},
                       {2, StructureVariant::kMerged},
                       {2, StructureVariant::kSplit}};
  train_comp.flavors = {{"", 1.0}, {"LP", 0.85}};

  LibraryComposition eval_comp;
  eval_comp.functions = {"NAND2", "NOR2", "AOI21", "XOR2"};  // XOR2 is "new"
  eval_comp.drives = {{1, StructureVariant::kWide}, {2, StructureVariant::kMerged}};
  eval_comp.flavors = {{"", 1.0}};

  SmallCorpus corpus;
  corpus.train = characterize_library(build_library(soi, train_comp), CharacterizeOptions{});
  corpus.eval = characterize_library(build_library(c28, eval_comp), CharacterizeOptions{});
  return corpus;
}

ProductVotes row_wise_votes(const RandomForest& forest, const std::int8_t* rows, std::size_t n,
                            std::size_t stride) {
  const double trees = static_cast<double>(forest.trees().size());
  ProductVotes out;
  for (std::size_t r = 0; r < n; ++r) {
    double sum = 0.0, vote1 = 0.0;
    for (const DecisionTree& tree : forest.trees()) {
      const auto [c0, c1] = tree.leaf_votes(rows + r * stride);
      sum += soft_vote(c0, c1);
      vote1 += hard_vote(c0, c1);
    }
    out.proba.push_back(sum / trees);
    out.margin.push_back(vote_margin(vote1, trees));
  }
  return out;
}

namespace {

struct ReferenceCart {
  const ColumnView& columns;
  const TreeParams& params;
  Rng rng;
  ReferenceTree tree;

  std::int32_t grow(const std::vector<std::uint32_t>& rows, std::size_t depth) {
    DecisionTree::NodeRecord node;
    for (const std::uint32_t r : rows) {
      (columns.label(r) != 0 ? node.count1 : node.count0) += columns.weight(r);
    }
    const std::uint64_t n = node.count0 + node.count1;
    const std::int32_t id = static_cast<std::int32_t>(tree.records.size());
    tree.records.push_back(node);
    if (node.count0 == 0 || node.count1 == 0 || depth >= params.max_depth ||
        n < params.min_samples_split) {
      return id;
    }

    const std::size_t features = columns.num_features();
    std::vector<std::uint16_t> order(features);
    std::iota(order.begin(), order.end(), std::uint16_t{0});
    std::size_t to_try = features;
    if (params.max_features > 0 && params.max_features < features) {
      for (std::size_t i = 0; i < params.max_features; ++i) {
        std::swap(order[i], order[i + rng.below(features - i)]);
      }
      to_try = params.max_features;
    }
    double best = 2.0;
    std::uint16_t best_feature = 0;
    int best_threshold = 0;
    bool found = false;
    for (std::size_t fi = 0; fi < features && (fi < to_try || !found); ++fi) {
      if (fi >= to_try) {
        std::swap(order[fi], order[fi + rng.below(features - fi)]);
        tree.grown += 1;
      }
      const std::uint16_t f = order[fi];
      // Weighted (label 0, label 1) counts per value present in the node.
      std::map<int, std::pair<std::uint64_t, std::uint64_t>> counts;
      for (const std::uint32_t r : rows) {
        auto& c = counts[columns.column(f)[r]];
        (columns.label(r) != 0 ? c.second : c.first) += columns.weight(r);
      }
      // Threshold v sends values <= v left; a threshold between two
      // present values splits like the lower one, so only present
      // values (but the largest) are candidates.
      std::uint64_t l0 = 0, l1 = 0;
      for (auto it = counts.begin(); std::next(it) != counts.end(); ++it) {
        l0 += it->second.first;
        l1 += it->second.second;
        const std::uint64_t left = l0 + l1, right = n - left;
        if (left < params.min_samples_leaf || right < params.min_samples_leaf) continue;
        const double dl0 = static_cast<double>(l0), dl1 = static_cast<double>(l1);
        const double r0 = static_cast<double>(node.count0 - l0);
        const double r1 = static_cast<double>(node.count1 - l1);
        const double dleft = static_cast<double>(left), dright = static_cast<double>(right);
        const double gl = 1.0 - (dl0 * dl0 + dl1 * dl1) / (dleft * dleft);
        const double gr = 1.0 - (r0 * r0 + r1 * r1) / (dright * dright);
        const double gini = (dleft * gl + dright * gr) / static_cast<double>(n);
        if (gini < best) {
          best = gini;
          best_feature = f;
          best_threshold = it->first;
          found = true;
        }
      }
    }
    if (!found) return id;

    std::vector<std::uint32_t> left_rows, right_rows;
    for (const std::uint32_t r : rows) {
      (columns.column(best_feature)[r] <= best_threshold ? left_rows : right_rows).push_back(r);
    }
    tree.records[static_cast<std::size_t>(id)].feature = best_feature;
    tree.records[static_cast<std::size_t>(id)].threshold = static_cast<std::int8_t>(best_threshold);
    const std::int32_t left = grow(left_rows, depth + 1);
    tree.records[static_cast<std::size_t>(id)].left = left;
    const std::int32_t right = grow(right_rows, depth + 1);
    tree.records[static_cast<std::size_t>(id)].right = right;
    return id;
  }
};

}  // namespace

ReferenceTree reference_cart(const ColumnView& columns, const std::vector<std::uint32_t>& indices,
                             const TreeParams& params, std::uint64_t seed) {
  ReferenceCart cart{columns, params, Rng(seed), {}};
  cart.grow(indices, 0);
  return cart.tree;
}

double accuracy(const std::vector<std::uint8_t>& truth,
                const std::vector<std::uint8_t>& predicted) {
  CAML_ASSERT(truth.size() == predicted.size());
  if (truth.empty()) return 0.0;
  std::size_t equal = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    equal += (truth[i] != 0) == (predicted[i] != 0) ? 1 : 0;
  }
  return static_cast<double>(equal) / static_cast<double>(truth.size());
}

std::string hexfloats(const std::vector<double>& values) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const double v : values) os << v << '\n';
  return os.str();
}

}  // namespace caml::testing
