#pragma once

#include <string>
#include <vector>

#include "camatrix/canonical.hpp"
#include "camodel/generate.hpp"
#include "flow/checkpoint.hpp"
#include "libgen/builder.hpp"

namespace caml {

/// Stimulus-policy schedule: cells with few inputs afford the exhaustive
/// two-pattern set; wide cells fall back to the single-input-change set
/// to keep single-core runtimes bounded. Training and evaluation always
/// agree because the policy depends only on the input count.
struct PolicyProfile {
  std::size_t exhaustive_max_inputs = 4;

  StimulusPolicy policy_for(std::size_t num_inputs) const {
    return num_inputs <= exhaustive_max_inputs ? StimulusPolicy::kExhaustivePairs
                                               : StimulusPolicy::kSingleInputChange;
  }
};

/// A library cell with everything the downstream flows need: its
/// simulated (ground-truth) CA model and its canonical form.
struct CharacterizedCell {
  LibraryCell source;
  CaModel model;
  CanonicalCell canonical;
  /// Simulator (test-condition) parameters the model was generated
  /// with; reused for the golden sweeps of CA-matrix construction.
  SimConfig sim;

  std::size_t num_inputs() const { return source.cell.num_inputs(); }
  std::size_t num_transistors() const { return source.cell.num_transistors(); }
};

struct CharacterizeOptions {
  PolicyProfile policy;
  UniverseOptions universe;
  InjectionConfig injection;
  /// Worker threads for characterize_library (0 = one per hardware
  /// thread, 1 = serial). Results are identical for any value: cells are
  /// characterized independently and reassembled in library order.
  std::size_t jobs = 0;
  /// Crash-safe progress: when enabled, each characterized cell is
  /// persisted as a checksummed .camodel artifact in checkpoint.dir the
  /// moment it completes, and a journal of completed cells is rewritten
  /// atomically every checkpoint.every units. With checkpoint.resume,
  /// cells whose artifact verifies are loaded back instead of
  /// re-simulated — the returned vector is bit-identical to an
  /// uninterrupted run (CA models round-trip exactly; the canonical form
  /// and sim config are recomputed deterministically).
  CheckpointOptions checkpoint;
};

/// Runs the conventional (simulation-based) generation flow over a whole
/// library — the source of both training data and ground truth.
std::vector<CharacterizedCell> characterize_library(const Library& library,
                                                    const CharacterizeOptions& options = {});

/// Rebuilds a characterized cell from its `<dir>/<cell>.camodel`
/// artifact: the model text round-trips exactly, and the canonical form
/// and sim config (`tech.sim`) are pure recomputations, so the result is
/// bit-identical to characterize_cell. Throws caml::Error if the
/// artifact is missing or corrupt.
CharacterizedCell read_characterized_cell(const LibraryCell& cell, const Technology& tech,
                                          const std::string& dir);

/// Characterizes a single cell under a technology.
CharacterizedCell characterize_cell(const LibraryCell& cell, const Technology& tech,
                                    const CharacterizeOptions& options = {});

}  // namespace caml
