#include "flow/hybrid.hpp"

#include <algorithm>
#include <cmath>

namespace caml {

const char* routing_policy_name(RoutingPolicy policy) {
  switch (policy) {
    case RoutingPolicy::kStructural: return "structural";
    case RoutingPolicy::kActive: return "active";
    case RoutingPolicy::kHybrid: return "hybrid";
  }
  return "?";
}

std::optional<RoutingPolicy> parse_routing_policy(std::string_view name) {
  if (name == "structural") return RoutingPolicy::kStructural;
  if (name == "active") return RoutingPolicy::kActive;
  if (name == "hybrid") return RoutingPolicy::kHybrid;
  return std::nullopt;
}

double CostModel::seconds_per_simulation(std::size_t num_transistors) const {
  const double ratio = static_cast<double>(num_transistors) / reference_transistors;
  return base_seconds * std::pow(std::max(ratio, 1e-3), size_exponent);
}

double CostModel::conventional_seconds(const CharacterizedCell& cell) const {
  const std::size_t sims = (1 + cell.model.defects.size()) * cell.model.num_stimuli();
  return static_cast<double>(sims) * seconds_per_simulation(cell.num_transistors());
}

std::size_t HybridReport::count_match(StructureMatch m) const {
  std::size_t n = 0;
  for (const HybridCellOutcome& o : outcomes) n += o.match == m;
  return n;
}

std::size_t HybridReport::count_routed_to_ml() const {
  std::size_t n = 0;
  for (const HybridCellOutcome& o : outcomes) n += o.routed_to_ml;
  return n;
}

std::size_t HybridReport::count_degraded() const {
  std::size_t n = 0;
  for (const HybridCellOutcome& o : outcomes) n += o.degraded;
  return n;
}

double HybridReport::conventional_only_seconds() const {
  double s = 0.0;
  for (const HybridCellOutcome& o : outcomes) s += o.conventional_seconds;
  return s;
}

double HybridReport::hybrid_seconds() const {
  double s = 0.0;
  for (const HybridCellOutcome& o : outcomes) {
    s += o.routed_to_ml ? o.ml_seconds : o.conventional_seconds;
  }
  return s;
}

double HybridReport::ml_portion_reduction() const {
  double conv = 0.0, ml = 0.0;
  for (const HybridCellOutcome& o : outcomes) {
    if (o.routed_to_ml) {
      conv += o.conventional_seconds;
      ml += o.ml_seconds;
    }
  }
  return conv == 0.0 ? 0.0 : 1.0 - ml / conv;
}

double HybridReport::overall_reduction() const {
  const double conv = conventional_only_seconds();
  return conv == 0.0 ? 0.0 : 1.0 - hybrid_seconds() / conv;
}

double HybridReport::ml_accuracy_above(double threshold) const {
  std::size_t routed = 0, above = 0;
  for (const HybridCellOutcome& o : outcomes) {
    if (!o.routed_to_ml) continue;
    ++routed;
    above += o.accuracy > threshold;
  }
  return routed == 0 ? 0.0 : static_cast<double>(above) / static_cast<double>(routed);
}

}  // namespace caml
