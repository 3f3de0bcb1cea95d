#pragma once

#include <cstddef>
#include <vector>

#include "flow/structural.hpp"

namespace caml::active {

/// Per-candidate acquisition score of one round. `confidence` is the
/// blended certainty in [0, 1] — 0 means the model knows nothing about
/// the cell (simulate it first), 1 means the ensemble is unanimous on
/// every row (simulating it teaches nothing new).
struct CandidateScore {
  std::size_t cell_index = 0;
  double confidence = 0.0;
};

/// Structural-similarity prior of the hybrid policy: how much the
/// structure index already vouches for a cell before the forest has
/// seen a single row of it. Identical structures are fully covered by
/// construction (the paper's sweet spot), equivalent ones mostly, new
/// ones not at all.
double structural_prior(StructureMatch match);

/// Blended per-cell confidence: the mean over the cell's CA-matrix rows
/// of 0.5 * |2p - 1| (soft-vote margin) + 0.5 * vote-disagreement
/// margin, both from one Classifier::predict_product walk. Rows
/// accumulate in matrix order, so the value is a deterministic function
/// of the two input vectors. Both vectors must have equal length > 0.
double blended_confidence(const std::vector<double>& proba, const std::vector<double>& margin);

/// Sorts scores into acquisition order: ascending confidence, ties
/// broken by ascending cell index — a total order, so the result is
/// identical no matter how the scores were produced or batched.
void sort_into_acquisition_order(std::vector<CandidateScore>& scores);

}  // namespace caml::active
