#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>

namespace caml {

/// Crash-safe progress options shared by the long-running flows
/// (characterize_library, which `caml characterize` runs, and
/// active::run_active_flow).
struct CheckpointOptions {
  /// Directory holding the journal and the per-unit artifacts; empty
  /// disables checkpointing entirely.
  std::string dir;
  /// Journal flush cadence: an atomic rewrite every `every` completed
  /// work units (a crash loses at most the last `every - 1` units of
  /// bookkeeping — the artifacts themselves are durable the moment they
  /// are written).
  std::size_t every = 16;
  /// Load an existing journal and skip the units it records.
  bool resume = false;

  bool enabled() const { return !dir.empty(); }
};

/// Journal of completed (cell, group) work units for a long batch run.
/// One line per unit, optionally carrying a payload replayed on resume,
/// wrapped in a checksummed CAMLF1 container (kind "journal") and
/// rewritten atomically — the journal on disk is always a complete,
/// verifiable snapshot of some prefix of the run's progress:
///
///   CAMLJOURNAL v1 units=<n>
///   <unit-id>\t<payload>
///   ...
///   END
///
/// Units are flushed sorted by id, so two runs that completed the same
/// unit set produce byte-identical journals regardless of completion
/// order — the property the kill-and-resume byte-compare leans on.
///
/// record() is thread-safe (characterization completes units on pool
/// workers). Unit ids must be newline/tab-free; payloads newline-free.
class CheckpointJournal {
 public:
  static constexpr const char* kFileName = "checkpoint.journal";

  /// `flush_every` = 0 flushes on every record.
  CheckpointJournal(std::string dir, std::size_t flush_every);

  /// Loads an existing journal. A missing file yields an empty journal;
  /// a corrupt or truncated one is discarded with a warning (its units
  /// are simply re-run — resume must never trust bad bookkeeping). Also
  /// removes stale `*.tmp.<pid>` staging files a crash left in the
  /// checkpoint directory (unpublished bytes, safe to drop).
  void load();

  bool completed(const std::string& unit) const;
  /// The payload recorded with a completed unit ("" when none).
  std::string payload(const std::string& unit) const;

  /// Records a finished unit; flushes the journal atomically every
  /// `flush_every` records. The unit's artifact must already be durable
  /// when this is called (journal-after-data ordering).
  void record(const std::string& unit, std::string payload = std::string());

  /// Atomic rewrite of the journal file (idempotent; also called by the
  /// flows once the run completes so the journal never lags the end).
  void flush();

  std::size_t size() const;
  std::string path() const;

 private:
  void flush_locked();

  std::string dir_;
  std::size_t every_;
  mutable std::mutex mutex_;
  std::map<std::string, std::string> done_;
  std::size_t unflushed_ = 0;
};

}  // namespace caml
