#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "flow/hybrid.hpp"
#include "flow/model_store.hpp"

namespace caml::active {

/// What a unit of --sim-budget means.
enum class BudgetUnit {
  kSeconds,  ///< modeled SPICE seconds via CostModel (default)
  kCount,    ///< number of simulated cells
};

const char* budget_unit_name(BudgetUnit unit);
std::optional<BudgetUnit> parse_budget_unit(std::string_view name);

/// Knobs of the generation loop. `base.routing` selects the policy:
/// kStructural = the paper's Fig. 7 routing (simulate cells whose
/// structure or group is unknown, in target order), kActive = pure
/// forest uncertainty, kHybrid = uncertainty blended with the
/// structural-similarity prior. The loop is deterministic by
/// construction: fixed seeds + any `jobs` value yield the same
/// acquisition order, journals and final forests byte for byte (see
/// docs/ACTIVE_LEARNING.md).
struct ActiveOptions {
  ActiveOptions() { base.routing = RoutingPolicy::kActive; }

  /// Routing policy plus ml / cost / checkpoint knobs.
  /// `base.checkpoint` journals acquisition rounds (units
  /// `acq:<round>:<cell>` and `round:<round>`) so a killed run resumes
  /// byte-identically.
  HybridOptions base;
  /// Total simulation budget the acquisition loop may spend; <= 0 means
  /// unlimited (the loop is then bounded by max_rounds / convergence).
  double sim_budget = 0.0;
  BudgetUnit budget_unit = BudgetUnit::kSeconds;
  /// Acquisition rounds before the loop gives up (each round scores,
  /// selects, simulates and retrains once).
  std::size_t max_rounds = 8;
  /// Cells acquired per round at most; 0 = auto (targets / max_rounds,
  /// at least 1).
  std::size_t acquisitions_per_round = 0;
  /// Trees grown per retrain when warm-starting (RandomForest::fit_more
  /// on the enlarged pool). Ignored with full_refit.
  std::size_t trees_per_round = 4;
  /// Fallback switch: refit every dirty group's forest from scratch
  /// each round instead of growing trees_per_round trees. kStructural
  /// never retrains mid-loop: each group gets one full fit at the end.
  bool full_refit = false;
  /// Weight of the structural prior under RoutingPolicy::kHybrid
  /// (confidence' = (1-w) * confidence + w * prior).
  double structural_prior_weight = 0.25;
  /// Convergence of the forest-scored policies: the loop stops once
  /// every remaining candidate's blended confidence reaches this margin.
  double converge_margin = 0.995;
  /// Worker threads for candidate scoring (0 = hardware concurrency).
  /// Any value produces identical results.
  std::size_t jobs = 0;
};

/// One acquisition round as the loop saw it.
struct RoundStats {
  std::size_t round = 0;
  std::size_t acquired = 0;
  /// Cumulative budget spent after this round (seconds or count,
  /// per BudgetUnit).
  double spent_after = 0.0;
  /// Confidence distribution over the round's candidates (before its
  /// acquisitions).
  double min_confidence = 0.0;
  double mean_confidence = 0.0;
  /// Reconstructed from the checkpoint journal instead of scored live.
  bool replayed = false;
};

struct ActiveReport {
  /// Per-cell outcomes in target order: acquired cells appear as
  /// conventional (routed_to_ml = false, accuracy 1.0), the rest as ML
  /// predictions by the final forests scored against ground truth.
  HybridReport hybrid;
  std::vector<RoundStats> rounds;
  RoutingPolicy policy = RoutingPolicy::kActive;
  double budget = 0.0;  ///< <= 0 = unlimited
  double spent = 0.0;   ///< total acquisition cost actually spent
  std::size_t acquired = 0;
  /// One flag per target: 1 when the cell was acquired (simulated under
  /// the budget), 0 otherwise.
  std::vector<std::uint8_t> acquired_mask;
  /// Targets that ended with no usable group model (no budget ever
  /// reached their group, or its forest failed to train): simulated
  /// conventionally outside the budget.
  std::size_t forced_conventional = 0;
  /// Final per-group forests — the byte-identity witness of the
  /// determinism contract (save_file yields the same bytes for any
  /// jobs value and across kill+resume).
  GroupModelStore models;
};

/// Runs the generation flow: score every unacquired target under the
/// routing policy, simulate the cells it selects under the budget, fold
/// them into the training pool and the structure index, retrain
/// incrementally (forest-scored policies only), repeat until the budget
/// is spent or nothing more is selected — then fit what is left and
/// predict everything still unacquired with the final forests.
ActiveReport run_active_flow(const std::vector<CharacterizedCell>& training,
                             const std::vector<CharacterizedCell>& targets,
                             const ActiveOptions& options = {});

}  // namespace caml::active
