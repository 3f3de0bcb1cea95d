#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flow/characterize.hpp"
#include "flow/model_store.hpp"
#include "serve/protocol.hpp"

namespace caml::serve {

/// One decoded kPredictCell request waiting for the compute plane.
/// conn/seq route the finished response back to its connection and slot
/// it into that connection's response order; the reactor fills them and
/// the compute plane echoes them untouched.
struct PredictJob {
  std::uint64_t conn_id = 0;
  std::uint64_t seq = 0;
  std::uint64_t request_id = 0;
  std::string netlist;
  std::int64_t enqueued_us = 0;  ///< decode timestamp, for end-to-end latency
  /// Absolute monotonic deadline (microseconds) after which the client
  /// no longer wants the answer; -1 = no deadline. The compute plane
  /// sheds expired jobs with DEADLINE_EXCEEDED instead of computing them.
  std::int64_t deadline_us = -1;
};

/// The answer to one PredictJob, ready for the wire.
struct PredictOutcome {
  enum class Kind { kOk, kNoGroup, kError, kShed };

  std::uint64_t conn_id = 0;
  std::uint64_t seq = 0;
  std::int64_t enqueued_us = 0;
  Frame response;
  Kind kind = Kind::kError;
  std::uint64_t rows_classified = 0;  ///< CA-matrix rows this request pushed through a forest
  /// True when this error came from a fault on the mapped store (SIGBUS
  /// or size change) — the server must swap to a good snapshot.
  bool store_fault = false;
};

/// Answers a coalesced batch of PREDICT requests against one store
/// snapshot: every request's cell is parsed and prepared independently
/// (matrix build + golden simulation), then each is classified with one
/// factored Classifier::predict_product walk, group model by group model.
/// The responses are byte-identical to answering each request alone
/// (tested); a mapped-store fault fails every request of its group.
///
/// Never throws: malformed payloads, unknown groups and internal
/// failures become structured kError responses for their own request
/// only. Outcomes are returned in job order.
std::vector<PredictOutcome> answer_predict_batch(const ModelStore& store,
                                                 const PolicyProfile& policy,
                                                 std::vector<PredictJob> jobs);

}  // namespace caml::serve
