#include "flow/model_store.hpp"

#include <type_traits>

#include <sstream>

#include "ml/forest_io.hpp"
#include "util/error.hpp"
#include "util/io.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace caml {

// Concurrent serving depends on predict() being callable through a
// const reference (shared read-only store, one instance for all
// workers). If this assert fires, a signature change dropped the const
// qualifier — restore it or give the serve layer its own
// synchronization before shipping.
static_assert(std::is_invocable_r_v<CaModel, decltype(&ModelStore::predict),
                                    const ModelStore&, const Cell&,
                                    const CanonicalCell&, StimulusPolicy, const SimConfig&,
                                    const UniverseOptions&>,
              "ModelStore::predict must stay const for lock-free shared serving");

CaModel ModelStore::predict(const Cell& cell, const CanonicalCell& canonical,
                            StimulusPolicy policy, const SimConfig& sim,
                            const UniverseOptions& universe) const {
  const GroupKey key{cell.num_inputs(), cell.num_transistors()};
  const Classifier* classifier = classifier_for(key);
  if (classifier == nullptr) {
    throw Error("no trained model for group (" + std::to_string(key.num_inputs) + " inputs, " +
                std::to_string(key.num_transistors) + " transistors); cell " + cell.name() +
                " needs conventional generation");
  }
  MlOptions options;
  options.matrix = matrix_options();
  return predict_ca_model_for_cell(*classifier, cell, canonical, policy, sim, options,
                                   universe);
}

GroupModelStore GroupModelStore::train(const std::vector<CharacterizedCell>& training,
                                       const MlOptions& options) {
  GroupModelStore store;
  store.matrix_ = options.matrix;
  std::vector<GroupTraining> groups;
  for (const auto& [key, members] : group_cells(training)) {
    GroupTraining& group = groups.emplace_back();
    group.key = key;
    for (std::size_t m : members) group.cells.push_back(&training[m]);
  }
  train_groups(groups, options);
  // Apply in key order: the first failing group's error is the one a
  // group-by-group loop would have thrown, whatever finished first.
  for (GroupTraining& group : groups) {
    if (group.error) std::rethrow_exception(group.error);
    log_info() << "trained group (" << group.key.num_inputs << " in, "
               << group.key.num_transistors << " T) on " << group.cells.size() << " cells / "
               << group.distinct_rows << " distinct rows";
    store.models_.emplace(group.key, std::move(group.forest));
  }
  return store;
}

GroupModelStore GroupModelStore::assemble(std::map<GroupKey, RandomForest> models,
                                          const MatrixOptions& matrix) {
  GroupModelStore store;
  store.models_ = std::move(models);
  store.matrix_ = matrix;
  return store;
}

const Classifier* GroupModelStore::classifier_for(const GroupKey& key) const {
  const auto it = models_.find(key);
  return it == models_.end() ? nullptr : &it->second;
}

const RandomForest* GroupModelStore::forest_for(const GroupKey& key) const {
  const auto it = models_.find(key);
  return it == models_.end() ? nullptr : &it->second;
}

std::vector<GroupKey> GroupModelStore::group_keys() const {
  std::vector<GroupKey> keys;
  keys.reserve(models_.size());
  for (const auto& [key, forest] : models_) keys.push_back(key);
  return keys;
}

void GroupModelStore::save(std::ostream& os) const {
  os << "CAMLMODELS groups=" << models_.size() << " activity=" << matrix_.include_activity
     << " response=" << matrix_.include_response
     << " truthtable=" << matrix_.include_truth_table
     << " kind=" << matrix_.include_defect_kind << '\n';
  for (const auto& [key, forest] : models_) {
    os << "GROUP " << key.num_inputs << ' ' << key.num_transistors << '\n';
    write_forest(os, forest, forest.num_features());
  }
  os << "ENDMODELS\n";
}

GroupModelStore GroupModelStore::load(std::istream& in) {
  GroupModelStore store;
  std::string line;
  if (!std::getline(in, line)) throw ParseError("expected CAMLMODELS header", 1);
  const std::vector<std::string> head = split(line);
  if (head.size() != 6 || head[0] != "CAMLMODELS") {
    throw ParseError("bad CAMLMODELS header", 1);
  }
  const auto flag = [&](std::size_t i, const char* name) {
    const std::string prefix = std::string(name) + "=";
    if (head[i].rfind(prefix, 0) != 0) throw ParseError("bad header field " + head[i], 1);
    return head[i].substr(prefix.size()) == "1";
  };
  if (head[1].rfind("groups=", 0) != 0) throw ParseError("bad header field " + head[1], 1);
  const std::size_t groups = parse_size(head[1].substr(7), "CAMLMODELS group count", 1);
  store.matrix_.include_activity = flag(2, "activity");
  store.matrix_.include_response = flag(3, "response");
  store.matrix_.include_truth_table = flag(4, "truthtable");
  store.matrix_.include_defect_kind = flag(5, "kind");

  for (std::size_t g = 0; g < groups; ++g) {
    if (!std::getline(in, line)) throw ParseError("truncated model store", 0);
    const std::vector<std::string> tok = split(line);
    if (tok.size() != 3 || tok[0] != "GROUP") throw ParseError("expected GROUP line", 0);
    const GroupKey key{parse_size(tok[1], "GROUP input count", 0),
                       parse_size(tok[2], "GROUP transistor count", 0)};
    store.models_.emplace(key, read_forest(in).forest);
  }
  if (!std::getline(in, line) || trim(line) != "ENDMODELS") {
    throw ParseError("missing ENDMODELS", 0);
  }
  return store;
}

void GroupModelStore::save_file(const std::string& path) const {
  // Stream the serialization straight through the checksumming writer:
  // the CRC accumulates per chunk, so saving never doubles peak RSS by
  // buffering the whole text first.
  io::ChecksummedFileWriter writer(path, "models", "store");
  save(writer.stream());
  writer.commit();
}

GroupModelStore GroupModelStore::load_file(const std::string& path) {
  std::istringstream payload(io::read_checksummed_file(path, "models"));
  try {
    return load(payload);
  } catch (const ParseError& e) {
    // The container CRC already vouched for the bytes, so a parse
    // failure here means a writer bug — name the file.
    throw ParseError::in_file(path, e);
  }
}

}  // namespace caml
