#pragma once

#include <istream>
#include <map>
#include <ostream>

#include "flow/ml_flow.hpp"

namespace caml {

/// Read-side contract every trained-model store satisfies: a classifier
/// per (inputs, transistors) group plus the CA-matrix options the
/// classifiers were trained with — everything the predict side needs.
/// Two implementations exist: the in-memory GroupModelStore below
/// (training + text interchange) and store::MappedModelStore (zero-copy
/// mmap over the binary CAMLF1 section). The serve plane and the CLI
/// program against this interface so either backs a daemon.
///
/// Thread safety contract (all implementations): every method is const
/// and safe to call concurrently on a shared store — no lazy caching,
/// no mutable state. The serve daemon shares one store across all
/// workers without copies or locks.
class ModelStore {
 public:
  virtual ~ModelStore() = default;

  virtual std::size_t num_groups() const = 0;
  virtual const MatrixOptions& matrix_options() const = 0;

  /// The trained classifier of a group, or nullptr when the group is
  /// untrained (callers route such cells to conventional generation).
  /// Lets the serve plane classify the prepared cells of a batch group
  /// by group.
  virtual const Classifier* classifier_for(const GroupKey& key) const = 0;

  bool has_group(const GroupKey& key) const { return classifier_for(key) != nullptr; }

  /// Revalidation hook the serve plane calls before computing a batch:
  /// false means the store's backing storage changed under it (e.g. a
  /// mapped file truncated in place) and answers can no longer be
  /// trusted — the caller must fail the batch and swap to a good
  /// snapshot. In-memory stores are always healthy.
  virtual bool healthy() const { return true; }

  /// Predicts the CA model of a new cell (its shape selects the group
  /// model). Throws caml::Error if no model exists for the cell's
  /// group — callers route such cells to conventional generation.
  CaModel predict(const Cell& cell, const CanonicalCell& canonical, StimulusPolicy policy,
                  const SimConfig& sim, const UniverseOptions& universe = {}) const;
};

/// A trained Random Forest per (inputs, transistors) group, plus the
/// CA-matrix options the forests were trained with. Serializable, so the
/// expensive training pass runs once (e.g. via the `caml train` CLI) and
/// predictions for new cells run anywhere. Text is the interchange
/// format; `caml store --to-binary` converts to the mmap-able binary
/// section (src/store) for parse-free serving.
class GroupModelStore final : public ModelStore {
 public:
  /// Trains one forest per group of the training corpus. Groups with a
  /// single cell still train (one cell of training data is exactly the
  /// paper's "identical structure available" sweet spot).
  static GroupModelStore train(const std::vector<CharacterizedCell>& training,
                               const MlOptions& options);

  /// Rebuilds a store from already-loaded forests — the import path the
  /// binary reader (store::MappedModelStore::materialize) shares with
  /// any future loader.
  static GroupModelStore assemble(std::map<GroupKey, RandomForest> models,
                                  const MatrixOptions& matrix);

  std::size_t num_groups() const override { return models_.size(); }
  const MatrixOptions& matrix_options() const override { return matrix_; }

  /// Thread safety: the lookup is a plain map find (no lazy caching, no
  /// mutable members), forest traversal only reads fitted trees, and
  /// matrix construction / golden simulation build their state on the
  /// caller's stack; a static_assert in model_store.cpp pins the const
  /// predict signature.
  const Classifier* classifier_for(const GroupKey& key) const override;

  /// Concrete per-group forest (the export side of the binary writer,
  /// which needs tree node records, not just a Classifier). nullptr for
  /// untrained groups.
  const RandomForest* forest_for(const GroupKey& key) const;
  /// Every trained group key in sorted order.
  std::vector<GroupKey> group_keys() const;

  /// Text serialization.
  void save(std::ostream& os) const;
  static GroupModelStore load(std::istream& in);

  /// Durable file persistence: the store text wrapped in a checksummed
  /// CAMLF1 container (kind "models") and published atomically — a
  /// crash mid-save leaves the previous file intact, and a truncated or
  /// bit-flipped file fails load_file with a ParseError naming the file
  /// and offset instead of loading garbage; an unframed file is a
  /// ParseError too. The save streams through io::ChecksummedFileWriter,
  /// so peak memory stays O(chunk) instead of 2-3x the serialized size.
  void save_file(const std::string& path) const;
  static GroupModelStore load_file(const std::string& path);

 private:
  std::map<GroupKey, RandomForest> models_;
  MatrixOptions matrix_;
};

}  // namespace caml
