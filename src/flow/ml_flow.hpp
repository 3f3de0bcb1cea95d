#pragma once

#include <exception>
#include <functional>
#include <memory>

#include "camatrix/matrix.hpp"
#include "flow/grouping.hpp"
#include "ml/classifier.hpp"
#include "ml/forest.hpp"

namespace caml {

/// ML-side knobs of the learning-based generation flow.
struct MlOptions {
  ForestParams forest;
  MatrixOptions matrix;
  /// Classifier factory; defaults to the paper's Random Forest. Used by
  /// the algorithm-comparison bench to swap in the baselines.
  std::function<std::unique_ptr<Classifier>()> make_classifier;

  std::unique_ptr<Classifier> new_classifier() const;
};

/// Assembles the training dataset of a group from every labeled
/// CA-matrix row of each training cell; identical rows across cells
/// merge into one weighted row. All cells must share the group's
/// (inputs, transistors) shape.
Dataset build_training_set(const std::vector<const CharacterizedCell*>& train_cells,
                           const MlOptions& options);

/// Trains the group classifier.
std::unique_ptr<Classifier> train_group_classifier(
    const std::vector<const CharacterizedCell*>& train_cells, const MlOptions& options);

/// One group's forest to train with train_groups.
struct GroupTraining {
  GroupKey key;
  std::vector<const CharacterizedCell*> cells;  ///< the group's training pool
  /// true: grow `forest` by `extra_trees` trees (RandomForest::fit_more).
  /// false: replace `forest` with a fresh fit under MlOptions::forest.
  bool warm_start = false;
  std::size_t extra_trees = 0;
  RandomForest forest;

  // Set by train_groups.
  std::size_t distinct_rows = 0;  ///< rows of the deduplicated training set
  double seconds = 0.0;           ///< this group's own wall time: build + fit
  /// What building or fitting threw; `forest` is then unusable.
  std::exception_ptr error;
};

/// Trains every group, one pool task per group on up to
/// MlOptions::forest.jobs workers. Each task builds its group's training
/// set, fits, and frees the set, so at most `jobs` sets are alive at
/// once. Tasks start largest first (by the Σ S·(D+1) input rows of
/// their cells), and each fit gets max(1, jobs / groups.size())
/// threads. Every group's forest depends only on its own cells, so the
/// results are identical for any jobs value. A failure is caught per
/// group and left in its `error`; callers apply the results in their
/// own (key) order.
void train_groups(std::vector<GroupTraining>& groups, const MlOptions& options);

/// Predicts the CA model of a new cell with a trained group classifier:
/// builds the unlabeled CA-matrix, classifies every (stimulus, defect)
/// row and assembles the predicted detection vectors into a CaModel
/// (the paper's inference step: "does this stimulus detect this defect
/// affecting this cell?").
CaModel predict_ca_model(const Classifier& classifier, const CharacterizedCell& cell,
                         const MlOptions& options);

/// The classifier-independent half of a prediction: the unlabeled
/// CA-matrix plus the CaModel skeleton (stimuli, golden responses,
/// defect list, zeroed detection bits). Splitting prediction into
/// prepare → classify → finish lets the serve plane prepare a coalesced
/// batch of cells before classifying any, and the active loop score a
/// prepared cell in every round.
struct PreparedPrediction {
  CaMatrix matrix;  ///< unlabeled features + (stimulus, defect) row map
  CaModel model;    ///< everything except the detection bits

  /// The matrix as the stimulus × defect product that
  /// Classifier::predict_product classifies.
  ProductView product() const;
};

/// Builds the unlabeled matrix and model skeleton of one cell. The
/// feature rows to classify are prepared.matrix.features() (row-major,
/// stride = matrix.num_features()), or prepared.product() factored.
PreparedPrediction prepare_prediction(const Cell& cell, const CanonicalCell& canonical,
                                      StimulusPolicy policy, const SimConfig& sim,
                                      const MatrixOptions& matrix_options,
                                      std::vector<Defect> defects);

/// Scatters one label per matrix row (in row order, which is product
/// row order) into the prepared model's detection bits and finalizes
/// it. `labels` must hold prepared.matrix.num_rows() entries.
CaModel finish_prediction(PreparedPrediction prepared, const std::uint8_t* labels);

/// Prediction for a genuinely new cell — no ground-truth model exists.
/// Enumerates the defect universe from the netlist, runs only the
/// defect-free golden sweeps (canonicalization + matrix prefix), and
/// predicts every detection bit.
CaModel predict_ca_model_for_cell(const Classifier& classifier, const Cell& cell,
                                  const CanonicalCell& canonical, StimulusPolicy policy,
                                  const SimConfig& sim, const MlOptions& options,
                                  const UniverseOptions& universe = {});

/// Fraction of (stimulus, defect) detection bits on which two CA models
/// of the same cell agree — the paper's per-cell prediction accuracy.
double ca_model_agreement(const CaModel& truth, const CaModel& predicted);

/// Per-cell evaluation record.
struct CellEvaluation {
  std::size_t cell_index = 0;  ///< index into the evaluated vector
  GroupKey group;
  double accuracy = 0.0;
};

/// Leave-one-out evaluation inside every group of one technology
/// (paper Table IV.a protocol). Groups with fewer than two cells are
/// skipped, matching the paper's empty boxes.
std::vector<CellEvaluation> evaluate_leave_one_out(const std::vector<CharacterizedCell>& cells,
                                                   const MlOptions& options);

/// Cross-technology evaluation (paper Tables IV.b/c protocol): for each
/// group, train on every training-library cell of that group and
/// evaluate each target-library cell. Target groups with no training
/// counterpart are skipped.
std::vector<CellEvaluation> evaluate_cross_library(
    const std::vector<CharacterizedCell>& train_cells,
    const std::vector<CharacterizedCell>& eval_cells, const MlOptions& options);

}  // namespace caml
