#include "ml/forest_walk.hpp"

#include <numeric>

#include "obs/metrics.hpp"

namespace caml {

namespace {

/// Records one batch of `rows` classified rows in the caml_forest_*
/// inference metrics.
void record_forest_batch(std::size_t rows) {
  static obs::Histogram& batch_rows = obs::Registry::global().histogram(
      "caml_forest_batch_rows", "Rows per forest batch prediction");
  static obs::Counter& rows_predicted = obs::Registry::global().counter(
      "caml_forest_rows_predicted_total", "Rows classified across all batch predictions");
  batch_rows.record(rows);
  rows_predicted.add(rows);
}

}  // namespace

ProductWalk::ProductWalk(const ProductView& product)
    : product_(product),
      stimuli_(product.stimuli),
      defects_(product.defects),
      sum_(product.num_rows(), 0.0),
      vote1_(product.num_rows(), 0.0) {
  std::iota(stimuli_.begin(), stimuli_.end(), 0u);
  std::iota(defects_.begin(), defects_.end(), 0u);
  // An empty product (a cell without defects) is no batch.
  if (product.num_rows() > 0) record_forest_batch(product.num_rows());
}

void ProductWalk::scatter(double soft, double hard, const Rect& rect) {
  for (std::size_t k = rect.d0; k < rect.d1; ++k) {
    const std::size_t base = std::size_t{defects_[k]} * product_.stimuli;
    double* const sum = sum_.data() + base;
    double* const vote1 = vote1_.data() + base;
    for (std::size_t j = rect.s0; j < rect.s1; ++j) {
      const std::uint32_t s = stimuli_[j];
      sum[s] += soft;
      vote1[s] += hard;
    }
  }
}

ProductVotes ProductWalk::finish(std::size_t num_trees) {
  const double trees = static_cast<double>(num_trees);
  for (double& s : sum_) s /= trees;
  for (double& v : vote1_) v = vote_margin(v, trees);
  return ProductVotes{std::move(sum_), std::move(vote1_)};
}

}  // namespace caml
