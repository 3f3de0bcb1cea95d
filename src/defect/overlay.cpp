#include "defect/overlay.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace caml {
namespace {

void check_transistors(const Cell& cell, const Defect& defect) {
  const auto num = static_cast<TransistorId>(cell.num_transistors());
  if (defect.a.transistor < 0 || defect.a.transistor >= num || defect.b.transistor < 0 ||
      defect.b.transistor >= num) {
    throw Error("defect references a transistor outside cell " + cell.name());
  }
}

}  // namespace

DefectOverlay::DefectOverlay(const Cell& base, InjectionConfig config)
    : cell_(base), config_(config) {
  cell_.reserve(base.num_nets() + kMaxExtraNets, base.num_transistors() + kMaxExtraTransistors);
}

void DefectOverlay::apply(const Defect& defect) {
  if (applied_) throw Error("DefectOverlay: apply() while a defect is already applied");
  check_transistors(cell_, defect);

  // The fixed SSO-sized names keep the hot path free of string
  // allocations (bridge/net names are never part of any simulation
  // result).
  const auto add_bridge = [&](NetId na, NetId nb, double width, const char* name) {
    Transistor bridge;
    bridge.name = name;
    bridge.type = MosType::kNmos;
    bridge.gate = cell_.vdd();  // always conducting
    bridge.drain = na;
    bridge.source = nb;
    bridge.bulk = cell_.vss();
    bridge.width_um = width;
    bridge.length_um = config_.short_length_um;
    cell_.add_transistor(std::move(bridge));
    added_bridge_ = true;
  };

  switch (defect.kind) {
    case DefectKind::kOpen: {
      const NetId original = cell_.transistor(defect.a.transistor).terminal(defect.a.terminal);
      const NetId floating = cell_.add_net("__overlay_open", NetKind::kInternal);
      added_net_ = true;
      cell_.transistor(defect.a.transistor).set_terminal(defect.a.terminal, floating);
      moved_terminal_ = true;
      moved_ = defect.a;
      original_net_ = original;
      if (defect.strength == DefectStrength::kResistive) {
        // A leaky break: the detached terminal keeps a weak path to its
        // original net.
        add_bridge(original, floating, config_.resistive_open_width_um, "__open_residual");
      }
      break;
    }
    case DefectKind::kShort: {
      const NetId na = cell_.transistor(defect.a.transistor).terminal(defect.a.terminal);
      const NetId nb = cell_.transistor(defect.b.transistor).terminal(defect.b.terminal);
      if (na == nb) {
        throw Error("short defect between already-connected nets in cell " + cell_.name());
      }
      add_bridge(na, nb,
                 defect.strength == DefectStrength::kResistive ? config_.resistive_short_width_um
                                                               : config_.short_width_um,
                 "__short_bridge");
      break;
    }
  }
  applied_ = true;
}

void DefectOverlay::revert() {
  if (!applied_) return;
  // Strict LIFO: the bridge (if any) references the floating net (if
  // any), so it goes first.
  if (added_bridge_) {
    cell_.remove_last_transistor();
    added_bridge_ = false;
  }
  if (moved_terminal_) {
    cell_.transistor(moved_.transistor).set_terminal(moved_.terminal, original_net_);
    moved_terminal_ = false;
    original_net_ = kNoNet;
  }
  if (added_net_) {
    cell_.remove_last_net();
    added_net_ = false;
  }
  applied_ = false;
}

std::vector<std::uint32_t> collapse_defects(const Cell& cell, const std::vector<Defect>& defects) {
  // Packed key: bit 63 kind, bit 62 strength, then the open's terminal or
  // the short's (lower, higher) net ids in 31 bits each.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed(defects.size());
  for (std::size_t d = 0; d < defects.size(); ++d) {
    const Defect& defect = defects[d];
    check_transistors(cell, defect);
    const bool is_short = defect.kind == DefectKind::kShort;
    const bool resistive = defect.strength == DefectStrength::kResistive;
    std::uint64_t key = std::uint64_t{is_short} << 63 | std::uint64_t{resistive} << 62;
    if (is_short) {
      const auto na = static_cast<std::uint64_t>(
          cell.transistor(defect.a.transistor).terminal(defect.a.terminal));
      const auto nb = static_cast<std::uint64_t>(
          cell.transistor(defect.b.transistor).terminal(defect.b.terminal));
      key |= std::min(na, nb) << 31 | std::max(na, nb);
    } else {
      key |= static_cast<std::uint64_t>(defect.a.transistor) << 2 |
             static_cast<std::uint64_t>(defect.a.terminal);
    }
    keyed[d] = {key, static_cast<std::uint32_t>(d)};
  }
  std::sort(keyed.begin(), keyed.end());

  std::vector<std::uint32_t> representative(defects.size());
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    const auto [key, d] = keyed[i];
    // Sorted by (key, index): a group's first entry is its lowest index.
    const bool first = i == 0 || key != keyed[i - 1].first;
    representative[d] = first ? d : representative[keyed[i - 1].second];
  }
  return representative;
}

}  // namespace caml
