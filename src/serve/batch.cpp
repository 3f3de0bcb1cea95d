#include "serve/batch.hpp"

#include <map>
#include <optional>
#include <utility>

#include "camatrix/canonical.hpp"
#include "camodel/model_io.hpp"
#include "defect/universe.hpp"
#include "flow/ml_flow.hpp"
#include "netlist/spice_parser.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/sigguard.hpp"

namespace caml::serve {

namespace {

Frame error_response(std::uint64_t request_id, ErrorCode code, const std::string& message) {
  Frame frame;
  frame.type = MsgType::kError;
  frame.request_id = request_id;
  frame.payload = encode_error(ErrorBody{code, 0, message});
  return frame;
}

/// Per-job scratch while the batch is in flight. `cell` points into
/// `cells`, which owns the parse result for the job's lifetime.
struct Item {
  PredictOutcome out;
  std::vector<Cell> cells;
  const Cell* cell = nullptr;
  std::optional<PreparedPrediction> prepared;
  const Classifier* classifier = nullptr;
};

}  // namespace

std::vector<PredictOutcome> answer_predict_batch(const ModelStore& store,
                                                 const PolicyProfile& policy,
                                                 std::vector<PredictJob> jobs) {
  CAML_TRACE_SPAN_ITEMS("serve_batch", jobs.size());
  std::vector<Item> items(jobs.size());

  // Phase 1 — per-request prepare: parse, route to a group model, build
  // the unlabeled matrix + model skeleton. Failures settle the item
  // immediately with a structured error and drop out of phase 2.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    PredictJob& job = jobs[i];
    Item& item = items[i];
    item.out.conn_id = job.conn_id;
    item.out.seq = job.seq;
    item.out.enqueued_us = job.enqueued_us;
    const std::uint64_t id = job.request_id;
    try {
      item.cells = SpiceParser().parse_string(job.netlist);
      if (item.cells.size() != 1) {
        item.out.kind = PredictOutcome::Kind::kError;
        item.out.response =
            error_response(id, ErrorCode::kBadRequest,
                           "expected exactly one .SUBCKT per request, got " +
                               std::to_string(item.cells.size()));
        continue;
      }
      const Cell& cell = item.cells.front();
      item.cell = &cell;
      const GroupKey key{cell.num_inputs(), cell.num_transistors()};
      item.classifier = store.classifier_for(key);
      if (item.classifier == nullptr) {
        item.out.kind = PredictOutcome::Kind::kNoGroup;
        item.out.response = error_response(
            id, ErrorCode::kNoGroup,
            "no trained model for group (" + std::to_string(key.num_inputs) + " inputs, " +
                std::to_string(key.num_transistors) + " transistors); cell " + cell.name() +
                " needs conventional generation");
        continue;
      }
      const CanonicalCell canonical = canonicalize(cell);
      item.prepared = prepare_prediction(cell, canonical,
                                         policy.policy_for(cell.num_inputs()), SimConfig{},
                                         store.matrix_options(), enumerate_defects(cell));
      item.out.response.type = MsgType::kPredictOk;
      item.out.response.request_id = id;
    } catch (const ParseError& e) {
      item.out.kind = PredictOutcome::Kind::kError;
      item.out.response = error_response(id, ErrorCode::kParseError, e.what());
    } catch (const Error& e) {
      log_warn() << "prediction failed: " << e.what();
      item.out.kind = PredictOutcome::Kind::kError;
      item.out.response = error_response(id, ErrorCode::kInternal, e.what());
    }
  }

  // Phase 2 — classification: each prepared item walks its own
  // stimulus × defect product, so its labels are the per-request answer
  // by construction. Items are grouped by model so that a mapped-store
  // fault fails exactly the requests of the model that faulted.
  std::map<const Classifier*, std::vector<std::size_t>> by_group;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].prepared) by_group[items[i].classifier].push_back(i);
  }
  std::vector<std::vector<std::uint8_t>> labels(items.size());
  for (const auto& [classifier, member_items] : by_group) {
    try {
      for (const std::size_t i : member_items) {
        labels[i] = classifier->predict_product(items[i].prepared->product()).labels();
      }
    } catch (const io::MappingFault& e) {
      // The mapped store faulted mid-traversal (file changed under the
      // mapping). Fail this group's requests with a structured INTERNAL
      // and flag the outcomes so the server swaps to a good snapshot —
      // the daemon itself never dies.
      log_error() << "store fault while classifying a serve batch: " << e.what();
      for (const std::size_t i : member_items) {
        Item& item = items[i];
        item.out.kind = PredictOutcome::Kind::kError;
        item.out.store_fault = true;
        item.out.response =
            error_response(item.out.response.request_id, ErrorCode::kInternal, e.what());
      }
      continue;
    }
    for (const std::size_t i : member_items) {
      Item& item = items[i];
      try {
        const CaModel predicted = finish_prediction(std::move(*item.prepared), labels[i].data());
        item.out.response.payload = ca_model_to_string(predicted, *item.cell);
        item.out.kind = PredictOutcome::Kind::kOk;
        item.out.rows_classified = predicted.defects.size() * predicted.stimuli.size();
      } catch (const Error& e) {
        log_warn() << "prediction failed: " << e.what();
        item.out.kind = PredictOutcome::Kind::kError;
        item.out.response =
            error_response(item.out.response.request_id, ErrorCode::kInternal, e.what());
      }
    }
  }

  std::vector<PredictOutcome> outcomes;
  outcomes.reserve(items.size());
  for (Item& item : items) outcomes.push_back(std::move(item.out));
  return outcomes;
}

}  // namespace caml::serve
