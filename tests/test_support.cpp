#include "test_support.hpp"

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
