#include "camatrix/matrix.hpp"

#include "sim/evaluator.hpp"
#include "util/error.hpp"

namespace caml {

namespace {

std::int8_t wave_code(Wave w) { return static_cast<std::int8_t>(w); }

std::int8_t activity_code(Wave w, MosType type) {
  const auto code = static_cast<std::int8_t>(w);
  return type == MosType::kNmos ? code : static_cast<std::int8_t>(-(code + 1));
}

Wave response_wave(Sig initial, Sig final) {
  return wave_from_pair(initial == Sig::kOne, final == Sig::kOne);
}

}  // namespace

class MatrixBuilder {
 public:
  MatrixBuilder(const Cell& cell, const CanonicalCell& canon, const MatrixOptions& options)
      : cell_(cell), canon_(canon), options_(options) {
    matrix_.column_names_ = column_names();
  }

  CaMatrix build(const std::vector<Stimulus>& stimuli, const GoldenResult& golden,
                 const std::vector<Defect>& defects,
                 const std::vector<const std::vector<std::uint8_t>*>& detection) {
    const std::size_t cols = matrix_.num_features();
    const std::size_t defect_rows = defects.size() * stimuli.size();
    const std::size_t free_rows = options_.include_free_rows ? stimuli.size() : 0;
    matrix_.features_.reserve((defect_rows + free_rows) * cols);
    matrix_.labels_.reserve(defect_rows + free_rows);

    // Truth-table columns: golden responses of the static stimuli, which
    // generate_stimuli always places first in pattern order.
    std::vector<std::int8_t> truth;
    if (options_.include_truth_table) {
      const std::size_t patterns = std::size_t{1} << cell_.num_inputs();
      CAML_ASSERT(stimuli.size() >= patterns);
      for (std::size_t p = 0; p < patterns; ++p) {
        CAML_ASSERT(stimuli[p].is_static() && stimuli[p].initial_pattern() == p);
        truth.push_back(golden.responses[p] == Sig::kOne ? 1 : 0);
      }
    }

    // Pre-encode the stimulus-dependent prefix of every row.
    const std::size_t t_count = cell_.num_transistors();
    matrix_.stimulus_columns_ =
        cols - 4 * t_count - (options_.include_defect_kind ? std::size_t{1} : 0);
    std::vector<std::vector<std::int8_t>> prefix(stimuli.size());
    for (std::size_t s = 0; s < stimuli.size(); ++s) {
      auto& row = prefix[s];
      for (Wave w : stimuli[s].waves()) row.push_back(wave_code(w));
      if (options_.include_response) {
        row.push_back(
            wave_code(response_wave(golden.initial_responses[s], golden.responses[s])));
      }
      row.insert(row.end(), truth.begin(), truth.end());
      if (options_.include_activity) {
        row.resize(row.size() + t_count);
        for (std::size_t ti = 0; ti < t_count; ++ti) {
          const auto id = static_cast<TransistorId>(ti);
          const std::size_t c = canon_.canonical_index(id);
          row[row.size() - t_count + c] =
              activity_code(golden.activity[s][ti], cell_.transistor(id).type);
        }
      }
      CAML_ASSERT(row.size() == matrix_.stimulus_columns_);
    }

    const auto emit_rows = [&](std::int32_t defect_index,
                               const std::vector<std::int8_t>& defect_cols, std::int8_t kind,
                               const std::vector<std::uint8_t>* det) {
      for (std::size_t s = 0; s < stimuli.size(); ++s) {
        matrix_.features_.insert(matrix_.features_.end(), prefix[s].begin(), prefix[s].end());
        matrix_.features_.insert(matrix_.features_.end(), defect_cols.begin(),
                                 defect_cols.end());
        if (options_.include_defect_kind) matrix_.features_.push_back(kind);
        matrix_.labels_.push_back(det ? (*det)[s] : 0);
        matrix_.row_defect_.push_back(defect_index);
        matrix_.row_stimulus_.push_back(static_cast<std::uint32_t>(s));
      }
    };

    if (options_.include_free_rows) {
      emit_rows(CaMatrix::kFreeRow, std::vector<std::int8_t>(4 * t_count, 0), 0, nullptr);
    }
    for (std::size_t d = 0; d < defects.size(); ++d) {
      std::vector<std::int8_t> defect_cols(4 * t_count, 0);
      const auto mark = [&](const TerminalRef& r) {
        const std::size_t c = canon_.canonical_index(r.transistor);
        defect_cols[c * 4 + static_cast<std::size_t>(r.terminal)] = 1;
      };
      mark(defects[d].a);
      if (defects[d].kind == DefectKind::kShort) mark(defects[d].b);
      // 1/2 = hard open/short, 3/4 = resistive open/short. Universes
      // with resistive variants need include_defect_kind: location
      // columns alone cannot separate a hard from a resistive defect at
      // the same terminals.
      const std::int8_t kind = static_cast<std::int8_t>(
          (defects[d].kind == DefectKind::kOpen ? 1 : 2) +
          (defects[d].strength == DefectStrength::kResistive ? 2 : 0));
      emit_rows(static_cast<std::int32_t>(d), defect_cols, kind,
                detection.empty() ? nullptr : detection[d]);
    }
    matrix_.has_labels_ = !detection.empty();
    return std::move(matrix_);
  }

 private:
  std::vector<std::string> column_names() const {
    std::vector<std::string> names;
    for (std::size_t i = 0; i < cell_.num_inputs(); ++i) {
      names.push_back("IN" + std::to_string(i));
    }
    if (options_.include_response) names.push_back("Z");
    if (options_.include_truth_table) {
      for (std::size_t p = 0; p < (std::size_t{1} << cell_.num_inputs()); ++p) {
        names.push_back("TT" + std::to_string(p));
      }
    }
    const std::size_t t_count = cell_.num_transistors();
    std::vector<std::string> canon_names(t_count);
    for (std::size_t ti = 0; ti < t_count; ++ti) {
      canon_names[canon_.canonical_index(static_cast<TransistorId>(ti))] =
          canon_.canonical_name[ti];
    }
    if (options_.include_activity) {
      for (const std::string& n : canon_names) names.push_back(n);
    }
    for (const std::string& n : canon_names) {
      for (const char* term : {"_D", "_G", "_S", "_B"}) names.push_back(n + term);
    }
    if (options_.include_defect_kind) names.push_back("KIND");
    return names;
  }

  const Cell& cell_;
  const CanonicalCell& canon_;
  MatrixOptions options_;
  CaMatrix matrix_;
};

CaMatrix build_ca_matrix(const Cell& cell, const CaModel& model, const CanonicalCell& canon,
                         const SimConfig& sim, const MatrixOptions& options) {
  CAML_ASSERT(model.num_inputs == cell.num_inputs());
  const GoldenResult golden = simulate_golden(cell, model.stimuli, sim);
  std::vector<Defect> defects;
  std::vector<const std::vector<std::uint8_t>*> detection;
  defects.reserve(model.defects.size());
  detection.reserve(model.defects.size());
  for (const CaDefectEntry& e : model.defects) {
    defects.push_back(e.defect);
    detection.push_back(&e.detection);
  }
  MatrixBuilder builder(cell, canon, options);
  return builder.build(model.stimuli, golden, defects, detection);
}

CaMatrix build_unlabeled_matrix(const Cell& cell, const std::vector<Defect>& defects,
                                const std::vector<Stimulus>& stimuli, const GoldenResult& golden,
                                const CanonicalCell& canon, const MatrixOptions& options) {
  MatrixOptions opt = options;
  opt.include_free_rows = false;  // inference rows only
  MatrixBuilder builder(cell, canon, opt);
  return builder.build(stimuli, golden, defects, {});
}

std::size_t matrix_feature_count(std::size_t num_inputs, std::size_t num_transistors,
                                 const MatrixOptions& options) {
  std::size_t n = num_inputs + 4 * num_transistors;
  if (options.include_response) n += 1;
  if (options.include_truth_table) n += std::size_t{1} << num_inputs;
  if (options.include_activity) n += num_transistors;
  if (options.include_defect_kind) n += 1;
  return n;
}

}  // namespace caml
