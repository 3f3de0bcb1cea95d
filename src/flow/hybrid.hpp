#pragma once

#include <optional>
#include <string_view>

#include "flow/checkpoint.hpp"
#include "flow/ml_flow.hpp"
#include "flow/structural.hpp"

namespace caml {

/// How the generation flow (active::run_active_flow in src/active)
/// decides which cells get real simulation.
///   kStructural — the paper's Fig. 7 heuristic: simulate structurally
///                 new cells and cells of untrained groups, predict the
///                 rest.
///   kActive     — budgeted uncertainty sampling: simulate the cells the
///                 forest is least certain about, retrain, repeat.
///   kHybrid     — kActive with a structural-similarity prior blended
///                 into the acquisition score.
enum class RoutingPolicy { kStructural, kActive, kHybrid };

const char* routing_policy_name(RoutingPolicy policy);
std::optional<RoutingPolicy> parse_routing_policy(std::string_view name);

/// Analytic model of conventional (SPICE-based) CA generation cost —
/// the stand-in for the paper's measured license-hours. Each electrical
/// simulation of a cell costs base_seconds scaled by transistor count;
/// a cell's conventional cost is that times its simulation count.
struct CostModel {
  double base_seconds = 0.8;          ///< one transient sim, 20-T cell
  double reference_transistors = 20;  ///< size normalization point
  double size_exponent = 0.5;         ///< sublinear growth with cell size

  double seconds_per_simulation(std::size_t num_transistors) const;

  /// Full conventional-flow cost for a characterized cell (its own
  /// defect universe and stimulus policy).
  double conventional_seconds(const CharacterizedCell& cell) const;
};

/// Per-cell outcome of the generation flow (paper Fig. 7).
struct HybridCellOutcome {
  std::size_t cell_index = 0;
  StructureMatch match = StructureMatch::kNew;
  bool routed_to_ml = false;
  /// The ML route was selected but inference threw, so the cell fell
  /// back to conventional generation. Degradation is counted and logged,
  /// never fatal.
  bool degraded = false;
  /// Prediction accuracy vs ground truth (1.0 for simulated cells,
  /// whose model is exact by construction).
  double accuracy = 1.0;
  /// Modeled SPICE cost of this cell's conventional generation.
  double conventional_seconds = 0.0;
  /// Measured wall-clock of the ML path (matrix build + inference, plus
  /// this cell's share of its group's training time).
  double ml_seconds = 0.0;
};

struct HybridReport {
  std::vector<HybridCellOutcome> outcomes;

  std::size_t count_match(StructureMatch m) const;
  std::size_t count_routed_to_ml() const;
  /// Cells that fell back from ML to conventional generation.
  std::size_t count_degraded() const;

  /// Total cost when every cell is simulated conventionally.
  double conventional_only_seconds() const;
  /// Total cost of the hybrid flow: ML wall time for routed cells +
  /// conventional cost for the rest.
  double hybrid_seconds() const;
  /// Reduction on the ML-covered cells only (the paper's 99.7%).
  double ml_portion_reduction() const;
  /// Overall reduction (the paper's ~38%).
  double overall_reduction() const;
  /// Fraction of ML-routed cells with accuracy above a threshold.
  double ml_accuracy_above(double threshold) const;
};

/// Options of the generation flow shared by every routing policy
/// (active::ActiveOptions::base).
struct HybridOptions {
  MlOptions ml;
  CostModel cost;
  RoutingPolicy routing = RoutingPolicy::kStructural;
  /// Crash-safe progress: acquisitions are journaled as they happen;
  /// with checkpoint.resume, journaled rounds are replayed and the rest
  /// re-derived (see docs/DURABILITY.md).
  CheckpointOptions checkpoint;
};

}  // namespace caml
