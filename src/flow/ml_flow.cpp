#include "flow/ml_flow.hpp"

#include <algorithm>
#include <chrono>

#include "defect/universe.hpp"
#include "obs/trace.hpp"
#include "sim/evaluator.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace caml {

std::unique_ptr<Classifier> MlOptions::new_classifier() const {
  if (make_classifier) return make_classifier();
  return std::make_unique<RandomForest>(forest);
}

namespace {

/// The training rows a cell contributes: one CA-matrix row per
/// (stimulus, defect) pair plus the defect-free rows.
std::size_t training_rows(const CharacterizedCell& cell) {
  return cell.model.stimuli.size() * (cell.model.defects.size() + 1);
}

/// The same count summed over a group's cells: an upper bound on its
/// distinct rows, which sizes the training set's buffers and orders
/// train_groups' schedule.
std::size_t training_rows_bound(const std::vector<const CharacterizedCell*>& train_cells) {
  std::size_t rows = 0;
  for (const CharacterizedCell* cell : train_cells) rows += training_rows(*cell);
  return rows;
}

}  // namespace

Dataset build_training_set(const std::vector<const CharacterizedCell*>& train_cells,
                           const MlOptions& options) {
  CAML_TRACE_SPAN_ITEMS("matrix_build", train_cells.size());
  CAML_ASSERT(!train_cells.empty());
  const CharacterizedCell& first = *train_cells.front();
  const std::size_t features =
      matrix_feature_count(first.num_inputs(), first.num_transistors(), options.matrix);
  Dataset data(features);
  // Size the dedup index and the row buffers for every input row up
  // front: merging the group's matrices never rehashes, and the buffers
  // never regrow. Concurrent group builds would otherwise leave each
  // doubling step's freed chunk resident in the allocator's per-thread
  // arenas; the untouched tail of one reservation is never resident.
  const std::size_t input_rows = training_rows_bound(train_cells);
  data.reserve_deduplicated(input_rows);
  data.reserve(input_rows);
  for (const CharacterizedCell* cell : train_cells) {
    CAML_ASSERT(cell->num_inputs() == first.num_inputs());
    CAML_ASSERT(cell->num_transistors() == first.num_transistors());
    const CaMatrix matrix = build_ca_matrix(cell->source.cell, cell->model, cell->canonical,
                                            cell->sim, options.matrix);
    // Identical rows (from structurally identical sibling cells) merge
    // into one weighted row, read straight from the matrix.
    CAML_TRACE_SPAN_ITEMS("dedup_merge", matrix.num_rows());
    data.add_deduplicated(matrix.features().data(), matrix.labels().data(), matrix.num_rows());
  }
  return data;
}

std::unique_ptr<Classifier> train_group_classifier(
    const std::vector<const CharacterizedCell*>& train_cells, const MlOptions& options) {
  CAML_TRACE_SPAN_ITEMS("train_group", train_cells.size());
  const Dataset data = build_training_set(train_cells, options);
  std::unique_ptr<Classifier> classifier = options.new_classifier();
  classifier->fit(data);
  return classifier;
}

void train_groups(std::vector<GroupTraining>& groups, const MlOptions& options) {
  if (groups.empty()) return;
  std::vector<std::size_t> bound(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    bound[g] = training_rows_bound(groups[g].cells);
  }
  // Largest first, so the longest group starts at once instead of
  // finishing last; ties keep key order.
  std::vector<std::size_t> order(groups.size());
  for (std::size_t g = 0; g < order.size(); ++g) order[g] = g;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return bound[a] > bound[b]; });
  const std::size_t jobs = resolve_jobs(options.forest.jobs);
  const std::size_t fit_jobs = std::max<std::size_t>(1, jobs / groups.size());
  parallel_for(order.size(), jobs, [&](std::size_t k) {
    GroupTraining& group = groups[order[k]];
    CAML_TRACE_SPAN_ITEMS("train_group", group.cells.size());
    const auto t0 = std::chrono::steady_clock::now();
    try {
      const Dataset data = build_training_set(group.cells, options);
      group.distinct_rows = data.num_rows();
      if (group.warm_start) {
        group.forest.set_jobs(fit_jobs);
        group.forest.fit_more(data, group.extra_trees);
      } else {
        ForestParams params = options.forest;
        params.jobs = fit_jobs;
        group.forest = RandomForest(params);
        group.forest.fit(data);
      }
    } catch (...) {
      group.error = std::current_exception();
    }
    group.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  });
}

ProductView PreparedPrediction::product() const {
  CAML_ASSERT(matrix.num_rows() == model.stimuli.size() * model.defects.size());
  return ProductView{matrix.features().data(), matrix.num_features(),
                     matrix.stimulus_columns(), model.stimuli.size(), model.defects.size()};
}

PreparedPrediction prepare_prediction(const Cell& cell, const CanonicalCell& canonical,
                                      StimulusPolicy policy, const SimConfig& sim,
                                      const MatrixOptions& matrix_options,
                                      std::vector<Defect> defects) {
  PreparedPrediction prepared;
  CaModel& predicted = prepared.model;
  predicted.cell_name = cell.name();
  predicted.num_inputs = cell.num_inputs();
  predicted.policy = policy;
  {
    CAML_TRACE_SPAN_ITEMS("matrix_build", defects.size());
    // One golden sweep serves both the matrix prefix and the model's
    // golden responses.
    predicted.stimuli = generate_stimuli(cell.num_inputs(), policy);
    const GoldenResult golden = simulate_golden(cell, predicted.stimuli, sim);
    prepared.matrix = build_unlabeled_matrix(cell, defects, predicted.stimuli, golden,
                                             canonical, matrix_options);
    predicted.golden_responses = golden.responses;
  }
  predicted.defects.resize(defects.size());
  for (std::size_t d = 0; d < defects.size(); ++d) {
    predicted.defects[d].defect = defects[d];
    predicted.defects[d].detection.assign(predicted.stimuli.size(), 0);
  }
  return prepared;
}

CaModel finish_prediction(PreparedPrediction prepared, const std::uint8_t* labels) {
  const CaMatrix& matrix = prepared.matrix;
  CaModel predicted = std::move(prepared.model);
  for (std::size_t r = 0; r < matrix.num_rows(); ++r) {
    const std::int32_t d = matrix.row_defect()[r];
    CAML_ASSERT(d >= 0);
    predicted.defects[static_cast<std::size_t>(d)].detection[matrix.row_stimulus()[r]] =
        labels[r];
  }
  predicted.classify();
  return predicted;
}

namespace {

/// Shared inference core: classify every (stimulus, defect) row of the
/// unlabeled CA-matrix and assemble the predicted CaModel. The same
/// prepare → predict_product → finish sequence the serve plane runs, so
/// both paths stay byte-identical by construction.
CaModel predict_from_defects(const Classifier& classifier, const Cell& cell,
                             const CanonicalCell& canonical, StimulusPolicy policy,
                             const SimConfig& sim, const MatrixOptions& matrix_options,
                             std::vector<Defect> defects) {
  obs::TraceSpan span("predict_ca_model");
  span.attr("cell", cell.name());
  PreparedPrediction prepared =
      prepare_prediction(cell, canonical, policy, sim, matrix_options, std::move(defects));
  const std::vector<std::uint8_t> labels =
      classifier.predict_product(prepared.product()).labels();
  return finish_prediction(std::move(prepared), labels.data());
}

}  // namespace

CaModel predict_ca_model(const Classifier& classifier, const CharacterizedCell& cell,
                         const MlOptions& options) {
  // The defect list and stimulus policy come from the cell's own
  // (ground-truth) model so the prediction is row-for-row comparable.
  std::vector<Defect> defects;
  defects.reserve(cell.model.defects.size());
  for (const CaDefectEntry& e : cell.model.defects) defects.push_back(e.defect);
  return predict_from_defects(classifier, cell.source.cell, cell.canonical, cell.model.policy,
                              cell.sim, options.matrix, std::move(defects));
}

CaModel predict_ca_model_for_cell(const Classifier& classifier, const Cell& cell,
                                  const CanonicalCell& canonical, StimulusPolicy policy,
                                  const SimConfig& sim, const MlOptions& options,
                                  const UniverseOptions& universe) {
  return predict_from_defects(classifier, cell, canonical, policy, sim, options.matrix,
                              enumerate_defects(cell, universe));
}

double ca_model_agreement(const CaModel& truth, const CaModel& predicted) {
  CAML_ASSERT(truth.defects.size() == predicted.defects.size());
  std::size_t agree = 0, total = 0;
  for (std::size_t d = 0; d < truth.defects.size(); ++d) {
    const auto& a = truth.defects[d].detection;
    const auto& b = predicted.defects[d].detection;
    CAML_ASSERT(a.size() == b.size());
    for (std::size_t s = 0; s < a.size(); ++s) {
      agree += a[s] == b[s];
    }
    total += a.size();
  }
  return total == 0 ? 1.0 : static_cast<double>(agree) / static_cast<double>(total);
}

std::vector<CellEvaluation> evaluate_leave_one_out(const std::vector<CharacterizedCell>& cells,
                                                   const MlOptions& options) {
  std::vector<CellEvaluation> out;
  const GroupMap groups = group_cells(cells);
  for (const auto& [key, members] : groups) {
    if (members.size() < 2) continue;  // paper: empty boxes

    // Fast path: build each cell's row set once, merge into a master
    // deduplicated set, then train each held-out iteration on
    // master-minus-that-cell — identical training data to rebuilding
    // per iteration at a fraction of the cost.
    const std::size_t features =
        matrix_feature_count(key.num_inputs, key.num_transistors, options.matrix);
    std::vector<Dataset> cell_sets;
    cell_sets.reserve(members.size());
    Dataset master(features);
    std::size_t input_rows = 0;
    for (std::size_t m : members) input_rows += training_rows(cells[m]);
    master.reserve_deduplicated(input_rows);
    for (std::size_t m : members) {
      const CharacterizedCell& cell = cells[m];
      const CaMatrix matrix = build_ca_matrix(cell.source.cell, cell.model, cell.canonical,
                                              cell.sim, options.matrix);
      Dataset rows(features);
      rows.reserve(matrix.num_rows());
      for (std::size_t r = 0; r < matrix.num_rows(); ++r) {
        rows.add_row(matrix.row(r), matrix.labels()[r]);
      }
      master.add_deduplicated(rows);
      cell_sets.push_back(std::move(rows));
    }

    for (std::size_t i = 0; i < members.size(); ++i) {
      const std::size_t held_out = members[i];
      const Dataset training = master.subtract_deduplicated(cell_sets[i]);
      std::unique_ptr<Classifier> classifier = options.new_classifier();
      classifier->fit(training);
      const CaModel predicted = predict_ca_model(*classifier, cells[held_out], options);
      out.push_back(CellEvaluation{held_out, key,
                                   ca_model_agreement(cells[held_out].model, predicted)});
    }
    log_info() << "LOO group (" << key.num_inputs << " in, " << key.num_transistors
               << " T): " << members.size() << " cells done";
  }
  return out;
}

std::vector<CellEvaluation> evaluate_cross_library(
    const std::vector<CharacterizedCell>& train_cells,
    const std::vector<CharacterizedCell>& eval_cells, const MlOptions& options) {
  std::vector<CellEvaluation> out;
  const GroupMap train_groups = group_cells(train_cells);
  const GroupMap eval_groups = group_cells(eval_cells);
  for (const auto& [key, members] : eval_groups) {
    const auto it = train_groups.find(key);
    if (it == train_groups.end()) continue;  // no counterpart group
    std::vector<const CharacterizedCell*> train;
    for (std::size_t m : it->second) train.push_back(&train_cells[m]);
    const std::unique_ptr<Classifier> classifier = train_group_classifier(train, options);
    for (std::size_t e : members) {
      const CaModel predicted = predict_ca_model(*classifier, eval_cells[e], options);
      out.push_back(
          CellEvaluation{e, key, ca_model_agreement(eval_cells[e].model, predicted)});
    }
    log_info() << "cross group (" << key.num_inputs << " in, " << key.num_transistors
               << " T): " << members.size() << " cells done";
  }
  return out;
}

}  // namespace caml
