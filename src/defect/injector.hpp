#pragma once

#include "defect/defect.hpp"
#include "netlist/cell.hpp"

namespace caml {

/// How defects are realized as netlist transformations.
struct InjectionConfig {
  /// Shorts are modeled as an always-conducting bridge device between
  /// the two shorted nets (an NMOS whose gate is tied to VDD). Its width
  /// sets the short's drive strength class — a hard, low-resistance
  /// short by default, consistent with the paper's observation that
  /// short resistances are identical across technologies.
  double short_width_um = 0.8;
  double short_length_um = 0.03;
  /// Width of the bridge realizing a *resistive* short (a weak driver
  /// that loses most strength fights).
  double resistive_short_width_um = 0.08;
  /// Width of the residual bridge a *resistive* open leaves between the
  /// detached terminal and its original net.
  double resistive_open_width_um = 0.06;
};

/// Returns a copy of the cell with the defect injected:
///  - hard terminal open: the terminal is re-attached to a fresh
///    floating net (a gate open therefore leaves the channel
///    permanently off; a source/drain open breaks that side of the
///    channel path),
///  - resistive open: as above, plus a weak residual bridge back to the
///    original net (a leaky break),
///  - short: a bridge device is added between the two terminal nets —
///    strong for hard shorts, weak for resistive ones.
///
/// The geometry is DefectOverlay::apply()'s: this is one copy of the
/// cell with the overlay applied to it.
///
/// Throws caml::Error if the defect references an invalid transistor or
/// if a short's two terminals already share a net (a no-op defect; the
/// enumerator never produces these).
Cell inject_defect(const Cell& cell, const Defect& defect, const InjectionConfig& config = {});

}  // namespace caml
