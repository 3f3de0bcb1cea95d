#pragma once

#include <istream>
#include <ostream>
#include <string>

#include "ml/forest.hpp"

namespace caml {

/// Text serialization of a trained Random Forest, so a group model can
/// be trained once and reused across runs (the CLI's train/predict
/// split). Format:
///
///   FOREST trees=<n> features=<f>
///   TREE nodes=<k>
///   <left> <right> <feature> <threshold> <count0> <count1>
///   ...
///   ENDFOREST
void write_forest(std::ostream& os, const RandomForest& forest, std::size_t num_features);

/// Reads a forest written by write_forest. Returns the forest and the
/// feature count it was trained with. Throws caml::ParseError on
/// malformed input.
struct LoadedForest {
  RandomForest forest;
  std::size_t num_features = 0;
};
LoadedForest read_forest(std::istream& in);

}  // namespace caml
