#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "defect/defect.hpp"
#include "defect/injector.hpp"
#include "netlist/cell.hpp"

namespace caml {

/// In-place, revertible defect injection on one reusable working copy of
/// a cell — the zero-allocation kernel of the characterization hot loop,
/// and the one place the defect geometry lives (inject_defect() is a
/// cell copy with apply() on it).
///
/// The overlay owns a single copy of the base cell with net/transistor
/// storage pre-reserved for the at-most-one extra net and one extra
/// bridge device any defect adds, so apply()/revert() perform no heap
/// allocation. The realized netlist transformation:
///  - hard terminal open: the terminal is re-attached to a fresh
///    floating net,
///  - resistive open: as above, plus a weak residual bridge back to the
///    original net,
///  - short: a bridge device between the two terminal nets — strong for
///    hard shorts, weak for resistive ones.
///
/// Usage, one (cell, worker) pair per thread:
///   DefectOverlay overlay(cell, config);
///   SwitchSim sim(overlay.cell(), sim_config);
///   sim.reserve(cell.num_nets() + DefectOverlay::kMaxExtraNets,
///               cell.num_transistors() + DefectOverlay::kMaxExtraTransistors);
///   for (const Defect& d : universe) {
///     overlay.apply(d);
///     sim.rebind();
///     ... sim.run(...) per stimulus ...
///     overlay.revert();
///   }
///
/// apply() throws caml::Error on an invalid transistor reference or a
/// short between already-connected nets, and leaves the working cell
/// unchanged in that case.
class DefectOverlay {
 public:
  /// Upper bound on how much a single applied defect grows the cell.
  static constexpr std::size_t kMaxExtraNets = 1;
  static constexpr std::size_t kMaxExtraTransistors = 1;

  explicit DefectOverlay(const Cell& base, InjectionConfig config = {});

  /// The working cell: the base cell, plus the applied defect while one
  /// is active. Mutated in place by apply()/revert().
  const Cell& cell() const { return cell_; }

  bool applied() const { return applied_; }

  /// Applies a defect in place. Throws caml::Error if a defect is
  /// already applied or if the defect is invalid for this cell (working
  /// cell left unchanged).
  void apply(const Defect& defect);

  /// Reverts the applied defect, restoring the working cell to the base
  /// cell exactly. No-op when nothing is applied.
  void revert();

  /// Moves the working cell out, with the applied defect if any. The
  /// overlay must not be used afterwards.
  Cell release() && { return std::move(cell_); }

 private:
  Cell cell_;
  InjectionConfig config_;
  bool applied_ = false;
  // Undo log of the one applied defect.
  bool moved_terminal_ = false;
  TerminalRef moved_{0, Terminal::kDrain};
  NetId original_net_ = kNoNet;
  bool added_net_ = false;
  bool added_bridge_ = false;
};

/// Maps every defect to its representative: the lowest index whose
/// defect apply() realizes as the same faulty cell, so simulating the
/// representative stands for all of them (representative[d] <= d; d
/// needs its own simulation iff representative[d] == d).
///
/// apply() turns a short into a bridge device between the two nets its
/// terminals sit on, with a width set only by the strength, so a short's
/// key is (strength, unordered net pair). Unordered is exact because the
/// bridge is the last transistor: swapping its drain and source leaves
/// every per-net arc list of the switch solver's channel CSR unchanged.
/// An open's key is its terminal, so opens never merge.
///
/// Throws caml::Error if a defect references a transistor outside the
/// cell.
std::vector<std::uint32_t> collapse_defects(const Cell& cell, const std::vector<Defect>& defects);

}  // namespace caml
