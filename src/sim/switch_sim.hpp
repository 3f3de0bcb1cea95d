#pragma once

#include <cstdint>
#include <vector>

#include "logic/stimulus.hpp"
#include "logic/wave.hpp"
#include "netlist/cell.hpp"

namespace caml {

/// Tuning knobs of the switch-level engine.
///
/// Strengths form a small integer lattice: rail/input drivers are
/// strongest, transistor paths attenuate to the device's strength class,
/// stored charge on a floating net is weakest. A net's value is the join
/// of the strongest contributions reaching it; equal-strength conflicts
/// resolve to X. Transistor strength classes derive from W/L so that
/// technology sizing rules influence which short-induced fights win —
/// the mechanism by which CA models become (slightly) technology
/// dependent, as the paper observes for test-condition changes.
struct SimConfig {
  /// Strength of primary inputs and of the VDD/VSS rails.
  int drive_strength = 100;
  /// Strength of retained charge on a floating net.
  int charge_strength = 1;
  /// Strength class of a device with width == unit_width_um.
  int base_strength = 5;
  /// Width that maps to base_strength (before mobility correction).
  double unit_width_um = 0.2;
  /// Clamp range of device strength classes.
  int min_strength = 2;
  int max_strength = 9;
  /// PMOS mobility penalty: effective width is width * pmos_mobility.
  double pmos_mobility = 0.5;

  /// Strength class of a transistor under this configuration.
  int device_strength(const Transistor& t) const;

  bool operator==(const SimConfig&) const = default;
};

/// Event-free switch-level simulator for one Cell.
///
/// Usage: construct once per cell, then for each stimulus call run(); or
/// drive pattern-by-pattern with reset() / apply(). When the bound cell
/// is mutated in place (DefectOverlay), call rebind() to re-derive the
/// internal structure — after a reserve() covering the mutated sizes the
/// rebind and every subsequent apply()/run() perform no heap allocation,
/// which is what makes the per-defect characterization loop
/// allocation-free. The engine models:
///  - bidirectional conduction through MOS channels,
///  - discrete drive-strength resolution (fights resolve to the stronger
///    side, ties to X),
///  - charge retention on floating nets (Z until first driven, then the
///    last steady value at charge strength) — which is what makes
///    stuck-open defects require two-pattern tests,
///  - pessimistic X propagation: an X on a gate makes the channel
///    conduction unknown, which conveys X at path strength; a Z gate
///    (truly floating, e.g. after a gate-open defect) leaves the channel
///    non-conducting,
///  - oscillation containment: nets still changing at the sweep cap are
///    pinned to X and the solve is repeated once.
///
/// Internally the channel graph is a CSR adjacency of packed arcs (other
/// terminal, device, path strength) so the propagation worklist touches
/// one contiguous array, and conduction re-evaluation between solve
/// iterations is incremental: only transistors whose gate net changed in
/// the previous iteration are recomputed. Both are exact — the results
/// are bit-identical to the naive full re-evaluation.
class SwitchSim {
 public:
  explicit SwitchSim(const Cell& cell, SimConfig config = {});

  const Cell& cell() const { return *cell_; }
  const SimConfig& config() const { return config_; }

  /// Re-binds to a (possibly different) cell and fully re-derives device
  /// strengths, adjacency and state storage.
  void bind(const Cell& cell);

  /// Re-derives the internal structure from the currently bound cell
  /// after it was mutated in place. Reuses all buffers: with capacity
  /// from reserve() this performs no heap allocation.
  void rebind();

  /// Pre-grows every internal buffer for cells up to the given sizes so
  /// later rebind()/apply() calls never allocate.
  void reserve(std::size_t nets, std::size_t transistors);

  /// Forget all stored charge (all non-driven nets return to Z).
  void reset();

  /// Apply an input pattern and settle to steady state. Returns the cell
  /// output value. Stored charge from the previous steady state is kept.
  Sig apply(InputPattern pattern);

  /// Full stimulus from a cold start: reset, apply the initial pattern,
  /// then (for dynamic stimuli) the final pattern. Returns the final
  /// output value.
  Sig run(const Stimulus& stimulus);

  /// Runs every stimulus exactly as consecutive run() calls would (each
  /// from a cold start) and writes the final output values to out.
  ///
  /// A run's result is a pure function of the settled state after the
  /// initial pattern, and that state is fully captured by the net values
  /// (apply() rederives everything else). Stimulus generators emit
  /// two-pattern sets grouped by initial pattern, so the settled initial
  /// state is computed once per group and replayed for every final
  /// pattern sharing it — near-halving the apply() count of a defect
  /// sweep. Net state afterwards is that of the last stimulus processed.
  void run_batch(const Stimulus* stimuli, std::size_t count, Sig* out);
  void run_batch(const std::vector<Stimulus>& stimuli, Sig* out) {
    run_batch(stimuli.data(), stimuli.size(), out);
  }

  /// Steady-state value of any net after the last apply().
  Sig net_value(NetId net) const;

  /// True if the last apply() hit the sweep cap (oscillation detected and
  /// contained by pinning to X).
  bool last_solve_oscillated() const { return oscillated_; }

 private:
  enum class Conduction : std::uint8_t { kOff, kOn, kUnknown };

  /// One direction of a MOS channel as seen from a net: conduction
  /// carries the source net's value to `other` at min(value strength,
  /// `strength`). Packed so the worklist loop reads one contiguous array.
  struct ChannelArc {
    NetId other;
    TransistorId device;
    std::int32_t strength;
  };

  /// Channel conduction for a gate value — a total function of the Sig
  /// domain by construction (constexpr table), so there is no unreachable
  /// error path in the hot loop.
  static Conduction conduction_for(Sig gate, bool is_pmos);

  void eval_conduction(TransistorId t);
  void eval_all_conduction();

  /// One full net resolution for the current (frozen) conduction states:
  /// a monotone lattice propagation (strength only increases, values only
  /// degrade towards X at equal strength), so it always reaches a
  /// fixpoint regardless of pass-transistor cycles.
  void propagate();

  /// Conduction evaluation followed by one propagation — the seed
  /// semantics of a standalone propagate() call, used by the oscillation
  /// containment paths.
  void full_propagate();

  /// Outer loop: alternate conduction evaluation and propagation until
  /// net values stabilize. Between iterations only transistors whose
  /// gate net changed are re-evaluated. Returns false if the conduction
  /// states never stabilize (genuine feedback, e.g. a gate-drain short).
  bool solve(std::size_t cap);

  const Cell* cell_;
  SimConfig config_;

  // Packed per-transistor records (hot fields of Transistor).
  std::vector<NetId> device_gate_;
  std::vector<std::uint8_t> device_is_pmos_;
  std::vector<std::int32_t> device_strength_;

  // CSR channel adjacency: arcs for net n live in
  // adj_[adj_offset_[n] .. adj_offset_[n + 1]).
  std::vector<std::uint32_t> adj_offset_;
  std::vector<ChannelArc> adj_;
  // CSR gate loads: transistors whose gate is net n, for incremental
  // conduction re-evaluation.
  std::vector<std::uint32_t> gate_offset_;
  std::vector<TransistorId> gate_list_;
  std::vector<std::uint32_t> csr_cursor_;  ///< scratch for CSR fills

  std::vector<Sig> value_;               ///< current net values
  std::vector<int> strength_;            ///< strength backing each value
  std::vector<Sig> retained_;            ///< steady value of previous pattern (charge)
  std::vector<std::uint8_t> driven_;     ///< fixed by input/rail this pattern
  std::vector<std::uint8_t> pinned_x_;   ///< oscillation containment

  // Persistent scratch of the solve/propagate loops (hoisted so the
  // steady state allocates nothing).
  std::vector<Conduction> cond_;         ///< per-transistor conduction
  std::vector<std::uint8_t> queued_;
  std::vector<std::uint32_t> worklist_;
  std::vector<Sig> previous_;            ///< values before the last propagate
  // run_batch cache: settled net values after applying batch_pattern_
  // from a cold start, plus the output it produced.
  std::vector<Sig> batch_state_;
  InputPattern batch_pattern_ = 0;
  Sig batch_out_ = Sig::kX;
  bool batch_valid_ = false;
  bool oscillated_ = false;
};

}  // namespace caml
