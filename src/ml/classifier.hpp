#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ml/dataset.hpp"

namespace caml {

/// An unlabeled inference CA-matrix read as the stimulus × defect
/// product it is. Row d·S + s of the row-major block `rows` (`stride`
/// features apart) joins stimulus s's columns [0, prefix) with defect
/// d's columns [prefix, stride). Stimulus s is read from row s and
/// defect d from row d·S, so the view needs no storage of its own.
struct ProductView {
  const std::int8_t* rows = nullptr;
  std::size_t stride = 0;
  std::size_t prefix = 0;  ///< stimulus columns; the rest describe the defect
  std::size_t stimuli = 0;
  std::size_t defects = 0;

  std::size_t num_rows() const { return stimuli * defects; }

  /// `n` plain rows (`stride` features apart) as a product with one
  /// defect and no defect columns: every split tests a stimulus column,
  /// so the factored walk over it is the row-by-row walk.
  static ProductView row_block(const std::int8_t* rows, std::size_t n, std::size_t stride) {
    return {rows, stride, std::numeric_limits<std::size_t>::max(), n, 1};
  }
};

/// Per-row classification of a ProductView, in product row order.
struct ProductVotes {
  std::vector<double> proba;   ///< probability of class 1
  /// How decisively the classifier commits to each row's label, in
  /// [0, 1]. Ensembles report the hard-vote disagreement margin
  /// |2 * vote1 / trees - 1| (0 = evenly split, 1 = unanimous).
  std::vector<double> margin;
  /// proba >= 0.5: the predicted labels.
  std::vector<std::uint8_t> labels() const;
};

/// Common interface of all binary classifiers in this library. fit()
/// must be called before predict(); rows passed to predict() must have
/// the same feature count as the training data.
class Classifier {
 public:
  virtual ~Classifier() = default;

  virtual void fit(const Dataset& data) = 0;
  virtual std::uint8_t predict(const std::int8_t* row) const = 0;
  virtual std::string name() const = 0;

  /// Probability and margin of every row of a stimulus × defect product
  /// — the one batch evaluation a classifier implements, and the call
  /// every inference path makes on an unlabeled CA-matrix. Forests
  /// override it with the factored walk (ml/forest_walk.hpp). The
  /// default loops predict() over the materialized rows: proba is the
  /// 0/1 label and the margin is 1.0, since a non-ensemble classifier
  /// exposes no internal disagreement (uncertainty-driven acquisition
  /// treats it as fully confident).
  virtual ProductVotes predict_product(const ProductView& product) const;

  /// Predicted labels for `n` rows laid out contiguously with `stride`
  /// features between row starts (a CaMatrix feature block qualifies):
  /// predict_product over ProductView::row_block.
  std::vector<std::uint8_t> predict_batch(const std::int8_t* rows, std::size_t n,
                                          std::size_t stride) const;

  /// Predicted label for every row of a dataset.
  std::vector<std::uint8_t> predict_all(const Dataset& data) const;
};

}  // namespace caml
