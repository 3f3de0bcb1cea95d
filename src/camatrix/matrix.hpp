#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "camatrix/canonical.hpp"
#include "camodel/ca_model.hpp"
#include "defect/defect.hpp"

namespace caml {

struct GoldenResult;

/// Column selection / ablation knobs for the CA-matrix.
struct MatrixOptions {
  /// Per-transistor switching-activity columns (paper Table I). Turning
  /// them off is the E8 ablation.
  bool include_activity = true;
  /// The golden response column (paper's "Z").
  bool include_response = true;
  /// The cell's static truth table (2^n columns, constant across the
  /// cell's rows). An aggregate of the "cell patterns and responses"
  /// information the paper's flow already derives from the defect-free
  /// simulation; it disambiguates rows of different-function cells that
  /// otherwise collide feature-for-feature within a group (e.g. NAND2
  /// vs NOR2 under the all-zero stimulus). See DESIGN.md.
  bool include_truth_table = true;
  /// Add the defect kind (free/open/short) as a feature. The paper
  /// excludes the "about defect" columns from the ML inputs; kept as an
  /// ablation knob.
  bool include_defect_kind = false;
  /// Emit the defect-free ("free") rows with label 0, as in Table I.
  bool include_free_rows = true;
};

/// The paper's CA-matrix: one row per (stimulus, defect) pair — plus the
/// defect-free rows — with 4-valued input columns, the response column,
/// per-transistor switching activity in canonical transistor order (all
/// N columns, then all P columns) and per-terminal defect-location
/// columns. Features are small signed integers:
///   waves: 0, 1, R=2, F=3;  PMOS activity is sign-flipped to -(code+1)
///   (the paper's "'-' character before the PMOS values");
///   defect terminal flags: 0/1.
class CaMatrix {
 public:
  std::size_t num_rows() const { return labels_.size(); }
  std::size_t num_features() const { return column_names_.size(); }

  std::int8_t at(std::size_t row, std::size_t col) const {
    return features_[row * num_features() + col];
  }
  const std::int8_t* row(std::size_t r) const { return features_.data() + r * num_features(); }
  const std::vector<std::int8_t>& features() const { return features_; }

  /// Detection label per row (0 for every row when built unlabeled).
  const std::vector<std::uint8_t>& labels() const { return labels_; }
  bool has_labels() const { return has_labels_; }

  const std::vector<std::string>& column_names() const { return column_names_; }

  /// Index into the source defect list per row; kFreeRow for free rows.
  static constexpr std::int32_t kFreeRow = -1;
  const std::vector<std::int32_t>& row_defect() const { return row_defect_; }
  /// Stimulus index per row.
  const std::vector<std::uint32_t>& row_stimulus() const { return row_stimulus_; }

  /// Columns [0, stimulus_columns()) depend only on the stimulus (inputs,
  /// Z, truth table, activity); the rest only on the defect. Rows are
  /// emitted defect-major, one per stimulus, so an unlabeled matrix of
  /// S stimuli is the stimulus × defect product: row d·S + s.
  std::size_t stimulus_columns() const { return stimulus_columns_; }

 private:
  friend class MatrixBuilder;
  std::vector<std::string> column_names_;
  std::vector<std::int8_t> features_;
  std::vector<std::uint8_t> labels_;
  std::vector<std::int32_t> row_defect_;
  std::vector<std::uint32_t> row_stimulus_;
  std::size_t stimulus_columns_ = 0;
  bool has_labels_ = false;
};

/// Builds the labeled CA-matrix of a cell from its CA model (training
/// data, paper Fig. 3). The canonical form must come from the same cell.
CaMatrix build_ca_matrix(const Cell& cell, const CaModel& model, const CanonicalCell& canon,
                         const SimConfig& sim = {}, const MatrixOptions& options = {});

/// Builds the unlabeled CA-matrix of a *new* cell (inference data): same
/// columns, rows for every (stimulus, defect) pair, labels all zero.
/// The caller passes the stimuli and their golden simulation, which it
/// also needs for the predicted model's skeleton.
CaMatrix build_unlabeled_matrix(const Cell& cell, const std::vector<Defect>& defects,
                                const std::vector<Stimulus>& stimuli, const GoldenResult& golden,
                                const CanonicalCell& canon, const MatrixOptions& options = {});

/// Number of feature columns a matrix will have for a cell group with
/// the given shape under the given options.
std::size_t matrix_feature_count(std::size_t num_inputs, std::size_t num_transistors,
                                 const MatrixOptions& options = {});

}  // namespace caml
