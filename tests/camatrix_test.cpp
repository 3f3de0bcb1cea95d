#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "camatrix/activity.hpp"
#include "camatrix/branch.hpp"
#include "camatrix/canonical.hpp"
#include "camatrix/matrix.hpp"
#include "sim/evaluator.hpp"
#include "util/error.hpp"
#include "camodel/generate.hpp"
#include "libgen/builder.hpp"
#include "libgen/catalog.hpp"
#include "test_support.hpp"

namespace caml {
namespace {

using testing::make_nand2;
using testing::make_nor2;

// ---- Activity values ---------------------------------------------------

TEST(Activity, ValueOrderingAndRendering) {
  const auto v1 = ActivityValue::from_pattern_bits({false, false, true, true});   // 0011
  const auto v2 = ActivityValue::from_pattern_bits({false, true, false, true});   // 0101
  EXPECT_LT(v1, v2);
  EXPECT_EQ(v1.to_uint64(), 3u);
  EXPECT_EQ(v2.to_uint64(), 5u);
  EXPECT_EQ(v1.to_string(), "0011");
}

TEST(Activity, ComputedValuesMatchGateLogic) {
  // NAND2 from the paper's Table II (inputs enumerated A-major):
  // N(A)=0011=3, N(B)=0101=5, P(A)=1100=12, P(B)=1010=10.
  const Cell cell = make_nand2();
  const auto activity = compute_activity_values(cell);
  ASSERT_EQ(activity.size(), 4u);
  EXPECT_EQ(activity[0].to_uint64(), 3u);   // N10, gate A
  EXPECT_EQ(activity[1].to_uint64(), 5u);   // N11, gate B
  EXPECT_EQ(activity[2].to_uint64(), 12u);  // Px, gate A
  EXPECT_EQ(activity[3].to_uint64(), 10u);  // Py, gate B
}

// ---- Branch extraction / equations --------------------------------------

TEST(Branch, Nand2SingleBranchEquation) {
  const Cell cell = make_nand2();
  const auto activity = compute_activity_values(cell);
  const auto branches = extract_branches(cell, activity);
  ASSERT_EQ(branches.size(), 1u);
  EXPECT_EQ(branches[0].level, 1);
  EXPECT_TRUE(branches[0].is_sp);
  EXPECT_EQ(branches[0].anon_equation, "((1n&1n)|1p|1p)");
  EXPECT_EQ(branches[0].exit, cell.output());
}

TEST(Branch, Nor2Equation) {
  const Cell cell = make_nor2();
  const auto activity = compute_activity_values(cell);
  const auto branches = extract_branches(cell, activity);
  ASSERT_EQ(branches.size(), 1u);
  EXPECT_EQ(branches[0].anon_equation, "((1p&1p)|1n|1n)");
}

TEST(Branch, Fig5EquationsAndLevels) {
  // The paper's Fig. 5: the output inverter is the level-1 branch with
  // equation (1n|1p); the complex stage is level 2 and its NMOS half
  // reads ((1n&(1n|1n))|1n) within the complementary equation.
  const Cell cell = testing::make_fig5_cell();
  const auto activity = compute_activity_values(cell);
  const auto branches = extract_branches(cell, activity);
  ASSERT_EQ(branches.size(), 2u);
  EXPECT_EQ(branches[0].level, 1);
  EXPECT_EQ(branches[0].anon_equation, "(1n|1p)");
  EXPECT_EQ(branches[1].level, 2);
  EXPECT_NE(branches[1].anon_equation.find("(1n&(1n|1n))"), std::string::npos)
      << branches[1].anon_equation;
}

TEST(Branch, SortCriteriaLevelThenSizeThenEquation) {
  const Cell cell = testing::make_fig5_cell();
  const auto activity = compute_activity_values(cell);
  const auto branches = extract_branches(cell, activity);
  for (std::size_t i = 1; i < branches.size(); ++i) {
    EXPECT_LE(branches[i - 1].level, branches[i].level);
  }
}

TEST(Branch, SpTreeCollectsAllDevices) {
  const Cell cell = make_nand2();
  const auto activity = compute_activity_values(cell);
  const auto branches = extract_branches(cell, activity);
  std::vector<TransistorId> devices;
  branches[0].tree.collect_devices(devices);
  std::sort(devices.begin(), devices.end());
  EXPECT_EQ(devices, (std::vector<TransistorId>{0, 1, 2, 3}));
}

// ---- Canonical renaming --------------------------------------------------

TEST(Canonical, Nand2MatchesPaperRenaming) {
  // Paper Fig. 4 / Table II: N10 -> N0 (stack top), N11 -> N1,
  // Py -> P0 (smaller activity), Px -> P1.
  const Cell cell = make_nand2();
  const CanonicalCell canon = canonicalize(cell);
  EXPECT_EQ(canon.canonical_name[0], "N0");  // N10
  EXPECT_EQ(canon.canonical_name[1], "N1");  // N11
  EXPECT_EQ(canon.canonical_name[2], "P1");  // Px
  EXPECT_EQ(canon.canonical_name[3], "P0");  // Py
}

TEST(Canonical, IndexLayoutNmosFirst) {
  const Cell cell = make_nand2();
  const CanonicalCell canon = canonicalize(cell);
  EXPECT_EQ(canon.canonical_index(0), 0u);  // N0
  EXPECT_EQ(canon.canonical_index(1), 1u);  // N1
  EXPECT_EQ(canon.canonical_index(3), 2u);  // P0 comes after all N
  EXPECT_EQ(canon.canonical_index(2), 3u);  // P1
  EXPECT_THROW(canon.canonical_index(99), Error);
}

// Property: canonicalization is invariant under scrambling (device
// order, device names, internal net names).
TEST(Canonical, ScrambleInvarianceAcrossCatalog) {
  const Technology tech = technology_28soi();
  Rng rng(0xABCDEF);
  for (const char* name :
       {"NAND3", "NOR4", "AOI22", "OAI211", "XOR2", "MUX2I", "MAJ3", "AND3"}) {
    Rng r1 = rng.fork();
    Rng r2 = rng.fork();
    const Cell a = build_cell(find_function(name), tech, {1, StructureVariant::kWide},
                              {"", 1.0}, name, r1);
    const Cell b = build_cell(find_function(name), tech, {1, StructureVariant::kWide},
                              {"", 1.0}, name, r2);
    const CanonicalCell ca = canonicalize(a, tech.sim);
    const CanonicalCell cb = canonicalize(b, tech.sim);
    EXPECT_EQ(ca.structure_signature, cb.structure_signature) << name;
    EXPECT_EQ(ca.reduced_signature, cb.reduced_signature) << name;
    // The canonical transistor sequences must describe the same devices:
    // same (type, gate net activity) at each canonical position.
    ASSERT_EQ(ca.nmos_order.size(), cb.nmos_order.size()) << name;
    for (std::size_t i = 0; i < ca.nmos_order.size(); ++i) {
      EXPECT_EQ(ca.activity[static_cast<std::size_t>(ca.nmos_order[i])],
                cb.activity[static_cast<std::size_t>(cb.nmos_order[i])])
          << name << " N" << i;
    }
    for (std::size_t i = 0; i < ca.pmos_order.size(); ++i) {
      EXPECT_EQ(ca.activity[static_cast<std::size_t>(ca.pmos_order[i])],
                cb.activity[static_cast<std::size_t>(cb.pmos_order[i])])
          << name << " P" << i;
    }
  }
}

// Property: signatures are technology-independent for the same function.
TEST(Canonical, SignaturesMatchAcrossTechnologies) {
  for (const char* name : {"NAND2", "AOI21", "OAI22", "XOR2", "MIN3"}) {
    std::set<std::string> signatures;
    for (const Technology& tech : default_technologies()) {
      Rng rng(tech.seed);
      const Cell cell = build_cell(find_function(name), tech, {1, StructureVariant::kWide},
                                   {"", 1.0}, name, rng);
      signatures.insert(canonicalize(cell, tech.sim).structure_signature);
    }
    EXPECT_EQ(signatures.size(), 1u) << name;
  }
}

TEST(Canonical, ReducedSignatureNormalizesFig6Variants) {
  const Technology tech = technology_28soi();
  Rng rng(5);
  for (const char* name : {"NAND2", "NOR3", "AOI22"}) {
    Rng r0 = rng.fork(), r1 = rng.fork(), r2 = rng.fork(), r3 = rng.fork();
    const Cell x1 =
        build_cell(find_function(name), tech, {1, StructureVariant::kWide}, {"", 1.0}, "a", r0);
    const Cell merged = build_cell(find_function(name), tech, {2, StructureVariant::kMerged},
                                   {"", 1.0}, "b", r1);
    const Cell split = build_cell(find_function(name), tech, {2, StructureVariant::kSplit},
                                  {"", 1.0}, "c", r2);
    const Cell merged4 = build_cell(find_function(name), tech, {4, StructureVariant::kMerged},
                                    {"", 1.0}, "d", r3);
    const auto sig = [&](const Cell& c) { return canonicalize(c, tech.sim).reduced_signature; };
    const std::string base = sig(x1);
    EXPECT_EQ(sig(merged), base) << name;
    EXPECT_EQ(sig(split), base) << name;
    EXPECT_EQ(sig(merged4), base) << name;
    // But the *full* signatures differ: these are distinct structures.
    const auto full = [&](const Cell& c) {
      return canonicalize(c, tech.sim).structure_signature;
    };
    EXPECT_NE(full(merged), full(x1)) << name;
    EXPECT_EQ(full(merged), full(merged));
  }
}

TEST(Canonical, DifferentFunctionsDifferentSignatures) {
  const Technology tech = technology_28soi();
  Rng rng(6);
  std::set<std::string> signatures;
  for (const char* name : {"NAND2", "NOR2", "AOI21", "OAI21", "XOR2", "XNOR2"}) {
    Rng r = rng.fork();
    const Cell cell =
        build_cell(find_function(name), tech, {1, StructureVariant::kWide}, {"", 1.0}, name, r);
    signatures.insert(canonicalize(cell, tech.sim).reduced_signature);
  }
  // NAND2 vs NOR2 and AOI vs OAI have different structures; XOR2/XNOR2
  // share the structure (gate wiring differs, structure does not).
  EXPECT_GE(signatures.size(), 5u);
}

// ---- CA-matrix -----------------------------------------------------------

TEST(Matrix, ShapeAndColumnNames) {
  const Cell cell = make_nand2();
  const CaModel model = generate_ca_model(cell);
  const CanonicalCell canon = canonicalize(cell);
  const CaMatrix matrix = build_ca_matrix(cell, model, canon);

  EXPECT_EQ(matrix.num_features(), matrix_feature_count(2, 4));
  const auto& names = matrix.column_names();
  ASSERT_EQ(names.size(), matrix.num_features());
  EXPECT_EQ(names[0], "IN0");
  EXPECT_EQ(names[2], "Z");
  // Truth-table columns follow the response.
  EXPECT_EQ(names[3], "TT0");
  EXPECT_EQ(names[6], "TT3");
  // Activity columns in canonical order N0, N1, P0, P1.
  EXPECT_EQ(names[7], "N0");
  EXPECT_EQ(names[10], "P1");
  // Defect columns per terminal.
  EXPECT_EQ(names[11], "N0_D");
  EXPECT_EQ(names[12], "N0_G");
}

TEST(Matrix, FreeRowsAreAllZeroDefectColumnsLabelZero) {
  const Cell cell = make_nand2();
  const CaModel model = generate_ca_model(cell);
  const CanonicalCell canon = canonicalize(cell);
  const CaMatrix matrix = build_ca_matrix(cell, model, canon);
  std::size_t free_rows = 0;
  for (std::size_t r = 0; r < matrix.num_rows(); ++r) {
    if (matrix.row_defect()[r] != CaMatrix::kFreeRow) continue;
    ++free_rows;
    EXPECT_EQ(matrix.labels()[r], 0);
    for (std::size_t c = 11; c < matrix.num_features(); ++c) {
      EXPECT_EQ(matrix.at(r, c), 0);
    }
  }
  EXPECT_EQ(free_rows, model.stimuli.size());
}

TEST(Matrix, DefectColumnsEncodeLocation) {
  const Cell cell = make_nand2();
  const CaModel model = generate_ca_model(cell);
  const CanonicalCell canon = canonicalize(cell);
  const CaMatrix matrix = build_ca_matrix(cell, model, canon);
  for (std::size_t r = 0; r < matrix.num_rows(); ++r) {
    const std::int32_t d = matrix.row_defect()[r];
    if (d < 0) continue;
    int marks = 0;
    for (std::size_t c = 11; c < matrix.num_features(); ++c) marks += matrix.at(r, c);
    const bool is_open = model.defects[static_cast<std::size_t>(d)].defect.kind ==
                         DefectKind::kOpen;
    EXPECT_EQ(marks, is_open ? 1 : 2);
  }
}

TEST(Matrix, PmosActivityIsSignFlipped) {
  const Cell cell = make_nand2();
  const CaModel model = generate_ca_model(cell);
  const CanonicalCell canon = canonicalize(cell);
  const CaMatrix matrix = build_ca_matrix(cell, model, canon);
  // Row 0 = free row, stimulus 00: N columns passive (0), P columns
  // active and sign-flipped (-2 encodes an active PMOS). Activity
  // columns start after inputs, Z and the 4 truth-table columns.
  EXPECT_EQ(matrix.at(0, 7), 0);
  EXPECT_EQ(matrix.at(0, 8), 0);
  EXPECT_EQ(matrix.at(0, 9), -2);
  EXPECT_EQ(matrix.at(0, 10), -2);
  // Truth-table columns encode NAND2: 1,1,1,0.
  EXPECT_EQ(matrix.at(0, 3), 1);
  EXPECT_EQ(matrix.at(0, 6), 0);
}

TEST(Matrix, LabelsMatchModelDetection) {
  const Cell cell = make_nand2();
  const CaModel model = generate_ca_model(cell);
  const CanonicalCell canon = canonicalize(cell);
  const CaMatrix matrix = build_ca_matrix(cell, model, canon);
  for (std::size_t r = 0; r < matrix.num_rows(); ++r) {
    const std::int32_t d = matrix.row_defect()[r];
    if (d < 0) continue;
    EXPECT_EQ(matrix.labels()[r],
              model.defects[static_cast<std::size_t>(d)].detection[matrix.row_stimulus()[r]]);
  }
}

TEST(Matrix, UnlabeledMatrixOmitsFreeRows) {
  const Cell cell = make_nand2();
  const CanonicalCell canon = canonicalize(cell);
  const std::vector<Defect> defects = enumerate_defects(cell);
  const std::vector<Stimulus> stimuli =
      generate_stimuli(cell.num_inputs(), StimulusPolicy::kExhaustivePairs);
  const CaMatrix matrix =
      build_unlabeled_matrix(cell, defects, stimuli, simulate_golden(cell, stimuli), canon);
  EXPECT_FALSE(matrix.has_labels());
  EXPECT_EQ(matrix.num_rows(), defects.size() * 16u);
  for (std::size_t r = 0; r < matrix.num_rows(); ++r) {
    EXPECT_GE(matrix.row_defect()[r], 0);
  }
}

TEST(Matrix, AblationOptionsChangeWidth) {
  MatrixOptions no_activity;
  no_activity.include_activity = false;
  MatrixOptions no_response;
  no_response.include_response = false;
  MatrixOptions with_kind;
  with_kind.include_defect_kind = true;
  MatrixOptions no_tt;
  no_tt.include_truth_table = false;
  EXPECT_EQ(matrix_feature_count(2, 4, no_activity), matrix_feature_count(2, 4) - 4);
  EXPECT_EQ(matrix_feature_count(2, 4, no_response), matrix_feature_count(2, 4) - 1);
  EXPECT_EQ(matrix_feature_count(2, 4, with_kind), matrix_feature_count(2, 4) + 1);
  EXPECT_EQ(matrix_feature_count(2, 4, no_tt), matrix_feature_count(2, 4) - 4);
}

// Property: scrambling a cell (device order, device names, internal
// net names) changes neither its labeled CA-matrix rows up to row order
// nor the multiset of its defects' detection vectors — the ML layer and
// the CA model see the same data whatever the vendor netlist looked
// like. Every catalog function of up to three inputs, under every
// default technology, in the wide and the split drive-2 structure.
TEST(Matrix, ScrambleInvarianceUpToRowOrder) {
  Rng rng(0x77);
  std::size_t scrambles = 0;
  for (const Technology& tech : default_technologies()) {
    GenerationOptions gen;
    gen.sim = tech.sim;
    // Sorted labeled rows and sorted detection vectors of one cell.
    const auto observe = [&](const Cell& c) {
      const CaModel model = generate_ca_model(c, gen);
      const CaMatrix m = build_ca_matrix(c, model, canonicalize(c, tech.sim), tech.sim);
      std::vector<std::vector<std::int8_t>> rows;
      for (std::size_t r = 0; r < m.num_rows(); ++r) {
        std::vector<std::int8_t> row(m.row(r), m.row(r) + m.num_features());
        row.push_back(static_cast<std::int8_t>(m.labels()[r]));
        rows.push_back(std::move(row));
      }
      std::vector<std::string> detections;  // one byte per stimulus
      for (const CaDefectEntry& e : model.defects) {
        detections.emplace_back(e.detection.begin(), e.detection.end());
      }
      std::sort(rows.begin(), rows.end());
      std::sort(detections.begin(), detections.end());
      return std::make_pair(std::move(rows), std::move(detections));
    };
    for (const CellFunction& function : function_catalog()) {
      if (function.num_inputs > 3) continue;
      for (const StructureVariant variant : {StructureVariant::kWide, StructureVariant::kSplit}) {
        Rng build_rng = rng.fork(), scramble_rng = rng.fork();
        const Cell cell =
            build_cell(function, tech, {2, variant}, {"", 1.0}, function.name, build_rng);
        const Cell scrambled = scramble_cell(cell, tech, scramble_rng);
        const auto [rows, detections] = observe(cell);
        const auto [scrambled_rows, scrambled_detections] = observe(scrambled);
        const std::string what = function.name + " " + tech.name +
                                 (variant == StructureVariant::kWide ? " wide" : " split");
        EXPECT_EQ(rows, scrambled_rows) << what;
        EXPECT_EQ(detections, scrambled_detections) << what;
        ++scrambles;
      }
    }
  }
  EXPECT_GE(scrambles, 144u);
}

}  // namespace
}  // namespace caml
