// Cross-module property tests: invariants that must hold across the
// whole catalog and all technologies, plus robustness of the parsers
// against malformed input.
#include <gtest/gtest.h>

#include <sstream>

#include "camodel/generate.hpp"
#include "camodel/model_io.hpp"
#include "defect/overlay.hpp"
#include "flow/model_store.hpp"
#include "netlist/spice_parser.hpp"
#include "netlist/spice_writer.hpp"
#include "sim/evaluator.hpp"
#include "test_support.hpp"
#include "util/error.hpp"

namespace caml {
namespace {

// The simulator must behave combinationally on every defect-free
// catalog cell: the response to any two-pattern stimulus equals the
// truth table evaluated at the final pattern, regardless of history.
TEST(SimProperty, DynamicResponseMatchesTruthTableAcrossCatalog) {
  for (const Technology& tech : default_technologies()) {
    Rng rng(tech.seed ^ 0xFEED);
    for (const CellFunction& f : function_catalog()) {
      if (f.num_inputs > 3) continue;  // keep the sweep affordable
      Rng cell_rng = rng.fork();
      const Cell cell = build_cell(f, tech, {1, StructureVariant::kWide}, {"", 1.0},
                                   f.name + "_prop", cell_rng);
      const std::uint64_t tt = f.truth_table();
      const auto stimuli =
          generate_stimuli(cell.num_inputs(), StimulusPolicy::kExhaustivePairs);
      SwitchSim sim(cell, tech.sim);
      for (const Stimulus& s : stimuli) {
        const Sig out = sim.run(s);
        const bool expected = (tt >> s.final_pattern()) & 1u;
        ASSERT_EQ(out, expected ? Sig::kOne : Sig::kZero)
            << f.name << " in " << tech.name << " under " << s.to_string();
      }
    }
  }
}

// A short's bridge is the last transistor of the faulty cell, so which
// of its two nets is drain and which is source never reaches the switch
// solver's channel CSR. collapse_defects() keys shorts by unordered net
// pair on the strength of this: applying a short as (a, b) and as (b, a)
// must give the same raw outputs, X/Z included. One short per distinct
// key, over one cell per catalog function.
TEST(DefectProperty, ShortOrientationNeverChangesTheSolve) {
  UniverseOptions full;
  full.inter_transistor_shorts = true;
  full.resistive_variants = true;
  std::size_t checked = 0;
  for (const Technology& tech : {technology_28soi(), technology_c28()}) {
    Rng rng(tech.seed ^ 0x0B1D6E);
    for (const CellFunction& f : function_catalog()) {
      Rng cell_rng = rng.fork();
      const Cell cell = build_cell(f, tech, {1, StructureVariant::kWide}, {"", 1.0},
                                   f.name + "_orient", cell_rng);
      const auto stimuli =
          generate_stimuli(cell.num_inputs(), PolicyProfile{}.policy_for(cell.num_inputs()));
      const std::vector<Defect> universe = enumerate_defects(cell, full);
      const std::vector<std::uint32_t> representative = collapse_defects(cell, universe);
      DefectOverlay overlay(cell);
      SwitchSim sim(overlay.cell(), tech.sim);
      std::vector<Sig> forward(stimuli.size()), backward(stimuli.size());
      const auto solve = [&](const Defect& defect, std::vector<Sig>& out) {
        overlay.apply(defect);
        sim.rebind();
        sim.run_batch(stimuli, out.data());
        overlay.revert();
      };
      for (std::size_t d = 0; d < universe.size(); ++d) {
        if (universe[d].kind != DefectKind::kShort || representative[d] != d) continue;
        Defect swapped = universe[d];
        std::swap(swapped.a, swapped.b);
        solve(universe[d], forward);
        solve(swapped, backward);
        ASSERT_EQ(forward, backward) << f.name << " in " << tech.name << ": "
                                     << universe[d].describe(cell);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

// Every detection bit in a generated CA model corresponds to a real
// binary difference; equivalence classes partition the defect set.
TEST(CaModelProperty, DetectionSoundnessAndEquivalencePartition) {
  const Technology tech = technology_c40();
  Rng rng(0xCAFE);
  for (const char* name : {"NOR3", "OAI22", "MUX2I"}) {
    Rng cell_rng = rng.fork();
    const Cell cell = build_cell(find_function(name), tech, {2, StructureVariant::kSplit},
                                 {"", 1.0}, name, cell_rng);
    GenerationOptions options;
    options.sim = tech.sim;
    const CaModel model = generate_ca_model(cell, options);

    // Partition check.
    std::size_t covered = 0;
    for (const auto& eq_class : model.equivalence_classes) {
      covered += eq_class.size();
      ASSERT_FALSE(eq_class.empty());
      for (std::size_t d : eq_class) {
        ASSERT_EQ(model.defects[d].detection, model.defects[eq_class.front()].detection);
      }
    }
    ASSERT_EQ(covered, model.defects.size());

    // Class consistency.
    for (const CaDefectEntry& d : model.defects) {
      bool any = false;
      for (std::uint8_t bit : d.detection) any |= bit != 0;
      ASSERT_EQ(any, d.klass != DefectClass::kUndetected) << d.defect.describe(cell);
    }
  }
}

// A Wheatstone-bridge NMOS network is not series/parallel
// decomposable: the canonicalizer must fall back gracefully (flagged
// non-SP, stable signature, no throw) and the full pipeline must still
// produce a CA model.
TEST(BranchProperty, NonSpBridgeFallsBackGracefully) {
  Cell cell("BRIDGE");
  const NetId a = cell.add_net("A", NetKind::kInput);
  const NetId z = cell.add_net("Z", NetKind::kOutput);
  const NetId vdd = cell.add_net("VDD", NetKind::kPower);
  const NetId vss = cell.add_net("VSS", NetKind::kGround);
  const NetId l = cell.add_net("l", NetKind::kInternal);
  const NetId r = cell.add_net("r", NetKind::kInternal);
  // Bridge of five NMOS between Z and VSS (gates all on A) + PMOS pull-up.
  cell.add_transistor({"M1", MosType::kNmos, z, a, l, vss, 0.4, 0.03});
  cell.add_transistor({"M2", MosType::kNmos, z, a, r, vss, 0.4, 0.03});
  cell.add_transistor({"M3", MosType::kNmos, l, a, r, vss, 0.4, 0.03});  // the bridge
  cell.add_transistor({"M4", MosType::kNmos, l, a, vss, vss, 0.4, 0.03});
  cell.add_transistor({"M5", MosType::kNmos, r, a, vss, vss, 0.4, 0.03});
  cell.add_transistor({"MP", MosType::kPmos, z, a, vdd, vdd, 0.8, 0.03});
  cell.validate();

  const CanonicalCell canon = canonicalize(cell);
  bool has_nonsp = false;
  for (const Branch& b : canon.branches) has_nonsp |= !b.is_sp;
  EXPECT_TRUE(has_nonsp);
  EXPECT_NE(canon.structure_signature.find("NONSP"), std::string::npos);
  EXPECT_EQ(canon.nmos_order.size() + canon.pmos_order.size(), cell.num_transistors());

  EXPECT_NO_THROW(generate_ca_model(cell));
}

// Truncating a valid netlist at any line must either parse fewer cells
// or throw a caml error — never crash or mis-parse.
TEST(ParserProperty, TruncationsNeverCrash) {
  const SpiceWriter writer;
  std::ostringstream os;
  writer.write_library(os, {testing::make_nand2(), testing::make_fig5_cell()});
  const std::string full = os.str();

  std::vector<std::size_t> line_starts{0};
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (full[i] == '\n') line_starts.push_back(i + 1);
  }
  const SpiceParser parser;
  for (std::size_t cut : line_starts) {
    const std::string text = full.substr(0, cut);
    try {
      const std::vector<Cell> cells = parser.parse_string(text);
      EXPECT_LE(cells.size(), 2u);
    } catch (const Error&) {
      // Acceptable: truncation produced a malformed netlist.
    }
  }
}

// Same for the CA model reader.
TEST(ParserProperty, CaModelTruncationsNeverCrash) {
  const Cell cell = testing::make_nand2();
  const CaModel model = generate_ca_model(cell);
  const std::string full = ca_model_to_string(model, cell);
  for (std::size_t cut = 0; cut < full.size(); cut += 37) {
    std::istringstream in(full.substr(0, cut));
    try {
      read_ca_model(in, cell);
    } catch (const Error&) {
      // Expected for most cuts.
    }
  }
}

// Train a store on one technology, predict an identical-structure cell
// of another: the paper's core cross-technology result through the
// persisted-model API.
TEST(ModelStoreProperty, CrossTechnologyPredictionThroughStore) {
  const Technology soi = technology_28soi();
  const Technology c40 = technology_c40();
  std::vector<CharacterizedCell> training;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    training.push_back(testing::characterize(
        testing::build_function("OAI21", soi, {1, StructureVariant::kWide}, seed), soi));
  }
  MlOptions options;
  options.forest.num_trees = 8;
  GroupModelStore store = GroupModelStore::train(training, options);

  std::stringstream buffer;
  store.save(buffer);
  const GroupModelStore loaded = GroupModelStore::load(buffer);

  const CharacterizedCell target = testing::characterize(
      testing::build_function("OAI21", c40, {1, StructureVariant::kWide}, 9), c40);
  const CaModel predicted = loaded.predict(target.source.cell, target.canonical,
                                           target.model.policy, target.sim);
  EXPECT_GT(ca_model_agreement(target.model, predicted), 0.97);
}

}  // namespace
}  // namespace caml
