#pragma once

#include <string>
#include <vector>

#include "flow/characterize.hpp"
#include "libgen/builder.hpp"
#include "ml/forest.hpp"
#include "netlist/cell.hpp"

namespace caml::testing {

/// Hand-written NAND2 matching the paper's Fig. 4 (A top of the NMOS
/// stack, devices named like a vendor netlist).
Cell make_nand2();

/// Hand-written NOR2.
Cell make_nor2();

/// The paper's Fig. 5 example: an NMOS branch ((N0&(N1|N2))|N3) driving
/// net Y, plus an output inverter. The pull-up network complements the
/// pull-down so the cell simulates correctly (Fig. 5 only drew the NMOS
/// half). Function: Z = (A & (B | C)) | D after the output inversion of
/// NOT(...) — i.e. Z = PD(A,B,C,D) of the first stage.
Cell make_fig5_cell();

/// Builds a catalog function under a technology with a fixed seed.
LibraryCell build_function(const std::string& function, const Technology& tech,
                           const DriveSpec& drive = {1, StructureVariant::kWide},
                           std::uint64_t seed = 42);

/// Characterizes one built cell with the default options.
CharacterizedCell characterize(const LibraryCell& cell, const Technology& tech);

/// A small two-technology corpus for flow tests: the same handful of
/// functions built under 28SOI and C28 (plus a C28-only function).
struct SmallCorpus {
  std::vector<CharacterizedCell> train;  ///< 28SOI
  std::vector<CharacterizedCell> eval;   ///< C28
};
SmallCorpus make_small_corpus();

/// Independent referee for forest evaluation: each of `n` rows
/// (`stride` features apart) walks every tree of `forest` on its own
/// (DecisionTree::leaf_votes) and sums its soft and hard votes in tree
/// order. Proba and margin of the factored walk must match it bit for
/// bit, on any backend loaded from `forest`.
ProductVotes row_wise_votes(const RandomForest& forest, const std::int8_t* rows, std::size_t n,
                            std::size_t stride);

/// Independent referee for DecisionTree::fit_indices: a plain CART that
/// searches each node one feature at a time over a per-value count map.
/// It follows the documented rules — node counts and leaf tests first;
/// then a partial shuffle (Rng(seed).below per slot) draws max_features
/// features (0 or >= the feature count: all, no draws); they are
/// searched in draw order, and past them the subset grows by one drawn
/// feature at a time while no split was found; a split needs weighted
/// min_samples_leaf rows on each side; the lowest Gini wins, the first
/// lowest (in draw order, then lowest threshold) on ties. Records come
/// in the tree's order: a node, its left subtree, its right subtree.
struct ReferenceTree {
  std::vector<DecisionTree::NodeRecord> records;
  /// Features drawn past max_features (the subset grew).
  std::size_t grown = 0;
};
ReferenceTree reference_cart(const ColumnView& columns, const std::vector<std::uint32_t>& indices,
                             const TreeParams& params, std::uint64_t seed);

/// Share of equal labels in [0, 1] (0 when empty); the lengths must
/// match.
double accuracy(const std::vector<std::uint8_t>& truth,
                const std::vector<std::uint8_t>& predicted);

/// One hexfloat per line: any floating-point difference, down to the
/// last bit, shows up as a string difference.
std::string hexfloats(const std::vector<double>& values);

}  // namespace caml::testing
