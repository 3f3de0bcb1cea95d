#include "active/learner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>

#include "active/acquisition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace caml::active {

namespace {

/// Acquisition-loop observability: round/acquisition/prediction
/// volumes, the confidence distribution the selector saw, and the
/// budget position. Like every obs hook in this library, recording
/// never influences flow outputs.
struct ActiveMetrics {
  obs::Counter& rounds;
  obs::Counter& acquired;
  obs::Counter& predicted;
  obs::Counter& forced;
  obs::Counter& degraded;
  obs::Counter& replayed;
  obs::Histogram& confidence_milli;
  obs::Histogram& round_acquired;
  obs::Gauge& budget_spent_milli;

  static ActiveMetrics& get() {
    obs::Registry& reg = obs::Registry::global();
    static ActiveMetrics m{
        reg.counter("caml_active_rounds_total", "Acquisition rounds run (live or replayed)"),
        reg.counter("caml_active_acquired_total",
                    "Cells acquired (simulated) by the active loop"),
        reg.counter("caml_active_predicted_total",
                    "Cells predicted by the final forests after the loop"),
        reg.counter("caml_active_forced_conventional_total",
                    "Cells simulated outside the budget for lack of a group model"),
        reg.counter("caml_active_degraded_total",
                    "Cells that fell back after an ML prediction failure"),
        reg.counter("caml_active_replayed_total",
                    "Acquisitions replayed from a checkpoint journal"),
        reg.histogram("caml_active_confidence_milli",
                      "Blended candidate confidence x1000 at scoring time"),
        reg.histogram("caml_active_round_acquired", "Cells acquired per round"),
        reg.gauge("caml_active_budget_spent_milli",
                  "Cumulative acquisition budget spent x1000 (seconds or count)"),
    };
    return m;
  }
};

std::string acq_unit(std::size_t round, std::size_t cell_index) {
  std::ostringstream os;
  os << "acq:" << std::setw(6) << std::setfill('0') << round << ':' << std::setw(6)
     << std::setfill('0') << cell_index;
  return os.str();
}

std::string round_unit(std::size_t round) {
  std::ostringstream os;
  os << "round:" << std::setw(6) << std::setfill('0') << round;
  return os.str();
}

std::optional<double> parse_real(const std::string& t) {
  char* end = nullptr;
  const double value = std::strtod(t.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == t.c_str()) return std::nullopt;
  return value;
}

/// Journal payload of one acquisition: structural match at acquisition
/// time plus the score and cost that selected it. Doubles are hexfloat
/// so a replayed run reconstructs the recorded values bit-exactly.
struct AcqRecord {
  StructureMatch match = StructureMatch::kNew;
  double confidence = 0.0;
  double cost = 0.0;
};

std::string encode_acq(const AcqRecord& rec) {
  std::ostringstream os;
  os << static_cast<unsigned>(rec.match) << ' ' << std::hexfloat << rec.confidence << ' '
     << rec.cost;
  return os.str();
}

std::optional<AcqRecord> decode_acq(const std::string& text) {
  const std::vector<std::string> tok = split(text);
  if (tok.size() != 3) return std::nullopt;
  const auto match = try_parse_uint64(tok[0]);
  const auto confidence = parse_real(tok[1]);
  const auto cost = parse_real(tok[2]);
  if (!match || *match > static_cast<unsigned>(StructureMatch::kNew) || !confidence || !cost) {
    return std::nullopt;
  }
  AcqRecord rec;
  rec.match = static_cast<StructureMatch>(*match);
  rec.confidence = *confidence;
  rec.cost = *cost;
  return rec;
}

/// Round marker payload: the round's aggregate stats. Its presence in
/// the journal certifies the round's acquisitions were all recorded
/// (units flush sorted, so a marker never lands before its members).
std::string encode_round(const RoundStats& stats) {
  std::ostringstream os;
  os << stats.acquired << ' ' << std::hexfloat << stats.spent_after << ' '
     << stats.min_confidence << ' ' << stats.mean_confidence;
  return os.str();
}

std::optional<RoundStats> decode_round(const std::string& text) {
  const std::vector<std::string> tok = split(text);
  if (tok.size() != 4) return std::nullopt;
  const auto acquired = try_parse_uint64(tok[0]);
  const auto spent = parse_real(tok[1]);
  const auto min_conf = parse_real(tok[2]);
  const auto mean_conf = parse_real(tok[3]);
  if (!acquired || !spent || !min_conf || !mean_conf) return std::nullopt;
  RoundStats stats;
  stats.acquired = static_cast<std::size_t>(*acquired);
  stats.spent_after = *spent;
  stats.min_confidence = *min_conf;
  stats.mean_confidence = *mean_conf;
  return stats;
}

}  // namespace

const char* budget_unit_name(BudgetUnit unit) {
  switch (unit) {
    case BudgetUnit::kSeconds: return "seconds";
    case BudgetUnit::kCount: return "count";
  }
  return "?";
}

std::optional<BudgetUnit> parse_budget_unit(std::string_view name) {
  if (name == "seconds") return BudgetUnit::kSeconds;
  if (name == "count") return BudgetUnit::kCount;
  return std::nullopt;
}

ActiveReport run_active_flow(const std::vector<CharacterizedCell>& training,
                             const std::vector<CharacterizedCell>& targets,
                             const ActiveOptions& options) {
  using Clock = std::chrono::steady_clock;
  const HybridOptions& base = options.base;
  const bool structural = base.routing == RoutingPolicy::kStructural;
  const bool use_prior = base.routing == RoutingPolicy::kHybrid;

  CAML_TRACE_SPAN_ITEMS("active_flow", targets.size());
  ActiveMetrics& metrics = ActiveMetrics::get();

  ActiveReport report;
  report.policy = base.routing;
  report.budget = options.sim_budget;

  // --- mutable loop state -------------------------------------------------
  StructureIndex index(training);
  std::map<GroupKey, std::vector<const CharacterizedCell*>> pool;
  for (const auto& [key, members] : group_cells(training)) {
    for (std::size_t m : members) pool[key].push_back(&training[m]);
  }
  std::map<GroupKey, RandomForest> forests;
  // Groups whose pool grew since their forest was last (re)fitted.
  std::map<GroupKey, bool> dirty;
  for (const auto& [key, cells] : pool) dirty[key] = true;
  std::map<GroupKey, double> training_seconds;

  // Fig. 7's routing test: a cell can be predicted once the index knows
  // its structure and its group has a training pool.
  const auto routable = [&](std::size_t i) {
    const CharacterizedCell& cell = targets[i];
    const auto pit = pool.find(GroupKey{cell.num_inputs(), cell.num_transistors()});
    return pit != pool.end() && !pit->second.empty() &&
           index.classify(cell.canonical) != StructureMatch::kNew;
  };

  std::vector<char> acquired(targets.size(), 0);
  // One prepared (unlabeled matrix + model skeleton) per target, built
  // on first use and reused across every scoring round and the final
  // prediction.
  std::vector<std::optional<PreparedPrediction>> prepared(targets.size());
  const auto prepared_for = [&](std::size_t i) -> PreparedPrediction& {
    if (!prepared[i]) {
      const CharacterizedCell& cell = targets[i];
      std::vector<Defect> defects;
      defects.reserve(cell.model.defects.size());
      for (const CaDefectEntry& e : cell.model.defects) defects.push_back(e.defect);
      prepared[i].emplace(prepare_prediction(cell.source.cell, cell.canonical,
                                             cell.model.policy, cell.sim, base.ml.matrix,
                                             std::move(defects)));
    }
    return *prepared[i];
  };

  // Acquisition cost per target under the configured budget unit. A
  // pure function of the cell, so live and resumed runs agree exactly.
  std::vector<double> cost(targets.size(), 1.0);
  if (options.budget_unit == BudgetUnit::kSeconds) {
    for (std::size_t i = 0; i < targets.size(); ++i) {
      cost[i] = base.cost.conventional_seconds(targets[i]);
    }
  }

  std::optional<CheckpointJournal> journal;
  if (base.checkpoint.enabled()) {
    journal.emplace(base.checkpoint.dir, base.checkpoint.every);
    if (base.checkpoint.resume) journal->load();
  }

  // Trains every dirty group on its current pool: full fit for new
  // groups (or with full_refit), warm-start growth of trees_per_round
  // trees otherwise. Runs at each round start and once after the loop,
  // so live and resumed runs walk the same (dataset, increment)
  // sequence per group — the incremental forests are byte-identical.
  // The groups train concurrently; results apply in key order.
  const auto retrain = [&] {
    std::vector<GroupTraining> groups;
    for (auto& [key, is_dirty] : dirty) {
      if (!is_dirty) continue;
      is_dirty = false;
      const auto pit = pool.find(key);
      if (pit == pool.end() || pit->second.empty()) continue;
      GroupTraining& group = groups.emplace_back();
      group.key = key;
      group.cells = pit->second;
      const auto fit = forests.find(key);
      if (fit != forests.end() && !options.full_refit) {
        group.warm_start = true;
        group.extra_trees = options.trees_per_round;
        group.forest = std::move(fit->second);
      }
    }
    train_groups(groups, base.ml);
    for (GroupTraining& group : groups) {
      if (group.error) {
        try {
          std::rethrow_exception(group.error);
        } catch (const Error& e) {
          // A group that cannot train serves conventionally until its
          // pool changes again — degradation, never a fatal error.
          log_warn() << "active: training failed for group (" << group.key.num_inputs
                     << " in, " << group.key.num_transistors << " T): " << e.what()
                     << "; group serves conventionally";
          forests.erase(group.key);
        }
        continue;
      }
      training_seconds[group.key] += group.seconds;
      forests.insert_or_assign(group.key, std::move(group.forest));
    }
  };

  // Applies one acquisition: the cell is simulated (ground truth — only
  // its cost is accounted), joins the pool and the structure index, and
  // its conventional outcome is recorded.
  std::map<std::size_t, HybridCellOutcome> acquired_outcomes;
  const auto acquire = [&](std::size_t i, StructureMatch match) {
    const CharacterizedCell& cell = targets[i];
    const GroupKey key{cell.num_inputs(), cell.num_transistors()};
    HybridCellOutcome outcome;
    outcome.cell_index = i;
    outcome.match = match;
    outcome.routed_to_ml = false;
    outcome.conventional_seconds = base.cost.conventional_seconds(cell);
    acquired_outcomes.emplace(i, outcome);
    acquired[i] = 1;
    pool[key].push_back(&cell);
    dirty[key] = true;
    index.add(cell.canonical);
  };

  double spent = 0.0;
  // Applies one live pick of `round`: classified against the index as
  // the picks before it left it, acquired, charged and journaled.
  const auto take = [&](std::size_t round, std::size_t i, double confidence) {
    const StructureMatch match = index.classify(targets[i].canonical);
    acquire(i, match);
    spent += cost[i];
    metrics.acquired.add();
    if (journal) journal->record(acq_unit(round, i), encode_acq({match, confidence, cost[i]}));
  };
  const std::size_t round_cap =
      options.acquisitions_per_round > 0
          ? options.acquisitions_per_round
          : std::max<std::size_t>(
                1, (targets.size() + std::max<std::size_t>(options.max_rounds, 1) - 1) /
                       std::max<std::size_t>(options.max_rounds, 1));

  // --- acquisition rounds -------------------------------------------------
  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    // Only forest-scored policies need the forests mid-loop; under
    // kStructural every group is fitted once, after the loop.
    if (!structural) retrain();

    // Replay: a journaled round marker certifies the round's
    // acquisitions are all recorded — apply them without rescoring.
    // Selection is a pure function of (forest state, acquired set,
    // remaining budget), so rounds past the journal's horizon recompute
    // exactly what the killed run would have chosen.
    if (journal && base.checkpoint.resume && journal->completed(round_unit(round))) {
      const std::optional<RoundStats> stats = decode_round(journal->payload(round_unit(round)));
      std::vector<std::pair<std::size_t, AcqRecord>> units;
      bool ok = stats.has_value();
      for (std::size_t i = 0; ok && i < targets.size(); ++i) {
        if (acquired[i] || !journal->completed(acq_unit(round, i))) continue;
        const std::optional<AcqRecord> rec = decode_acq(journal->payload(acq_unit(round, i)));
        if (!rec) {
          ok = false;
          break;
        }
        units.emplace_back(i, *rec);
      }
      if (ok) {
        for (const auto& [i, rec] : units) {
          acquire(i, rec.match);
          spent += cost[i];
        }
        RoundStats replayed = *stats;
        replayed.round = round;
        replayed.replayed = true;
        report.rounds.push_back(replayed);
        metrics.rounds.add();
        metrics.replayed.add(units.size());
        metrics.round_acquired.record(units.size());
        if (units.empty()) break;  // the journaled run stopped here
        continue;
      }
      log_warn() << "active: discarding unreadable journal round " << round
                 << "; re-deriving it (selection is deterministic)";
    }

    // Score every unacquired target. Scoring only reads shared state;
    // parallel_map keeps input order, each cell's rows classify in one
    // factored walk with tree-order accumulation — confidences are identical
    // for any jobs value. The structural score is 1 for a routable
    // cell, 0 for one that needs simulation.
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      if (!acquired[i]) candidates.push_back(i);
    }
    if (candidates.empty()) break;
    if (!structural) {
      parallel_for(candidates.size(), options.jobs,
                   [&](std::size_t k) { prepared_for(candidates[k]); });
    }
    std::vector<CandidateScore> scores =
        parallel_map(candidates, options.jobs, [&](const std::size_t& i) {
          if (structural) return CandidateScore{i, routable(i) ? 1.0 : 0.0};
          const CharacterizedCell& cell = targets[i];
          const GroupKey key{cell.num_inputs(), cell.num_transistors()};
          double confidence = 0.0;
          const auto fit = forests.find(key);
          if (fit != forests.end()) {
            if (prepared[i]->matrix.num_rows() == 0) {
              confidence = 1.0;  // nothing to predict; never worth a simulation
            } else {
              // One factored walk yields both the soft and the hard votes.
              const ProductVotes votes = fit->second.predict_product(prepared[i]->product());
              confidence = blended_confidence(votes.proba, votes.margin);
            }
          }
          if (use_prior) {
            confidence = (1.0 - options.structural_prior_weight) * confidence +
                         options.structural_prior_weight *
                             structural_prior(index.classify(cell.canonical));
          }
          return CandidateScore{i, confidence};
        });

    RoundStats stats;
    stats.round = round;
    stats.min_confidence = std::numeric_limits<double>::infinity();
    double conf_sum = 0.0;
    for (const CandidateScore& s : scores) {
      stats.min_confidence = std::min(stats.min_confidence, s.confidence);
      conf_sum += s.confidence;
      metrics.confidence_milli.record(
          static_cast<std::uint64_t>(std::lround(std::clamp(s.confidence, 0.0, 1.0) * 1000.0)));
    }
    stats.mean_confidence = conf_sum / static_cast<double>(scores.size());

    // Acquisitions apply (and journal) in ascending cell index — the
    // same order replay applies them — so pool growth order, and with
    // it every retrained forest, is identical across live, parallel and
    // resumed runs.
    if (structural) {
      // Fig. 7 routing: walk in target order, re-checking each cell
      // against the index and pools as the picks before it left them,
      // so a later twin of a simulated cell is predicted.
      for (const CandidateScore& s : scores) {
        if (stats.acquired >= round_cap) break;
        if (routable(s.cell_index)) continue;
        if (options.sim_budget > 0 && spent + cost[s.cell_index] > options.sim_budget) continue;
        take(round, s.cell_index, s.confidence);
        ++stats.acquired;
      }
      stats.spent_after = spent;
    } else {
      // Greedy selection under the remaining budget: walk candidates
      // from least to most confident, take what fits (skipping
      // unaffordable cells keeps cheaper uncertain ones reachable), stop
      // at the round cap or the convergence margin.
      sort_into_acquisition_order(scores);
      std::map<std::size_t, double> picked;  // cell index -> confidence
      double round_spent = 0.0;
      for (const CandidateScore& s : scores) {
        if (picked.size() >= round_cap) break;
        if (s.confidence >= options.converge_margin) break;
        if (options.sim_budget > 0 &&
            spent + round_spent + cost[s.cell_index] > options.sim_budget) {
          continue;
        }
        picked.emplace(s.cell_index, s.confidence);
        round_spent += cost[s.cell_index];
      }
      stats.acquired = picked.size();
      stats.spent_after = spent + round_spent;
      for (const auto& [i, confidence] : picked) take(round, i, confidence);
    }
    if (journal && stats.acquired > 0) journal->record(round_unit(round), encode_round(stats));
    report.rounds.push_back(stats);
    metrics.rounds.add();
    metrics.round_acquired.record(stats.acquired);
    metrics.budget_spent_milli.set(static_cast<std::int64_t>(std::llround(spent * 1000.0)));
    if (stats.acquired == 0) break;  // converged, or nothing affordable remains
  }
  retrain();  // learn the final round's acquisitions (kStructural: every group)

  // --- final pass: predict everything still unacquired --------------------
  std::map<GroupKey, std::size_t> served;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (acquired[i]) {
      report.hybrid.outcomes.push_back(acquired_outcomes.at(i));
      continue;
    }
    const CharacterizedCell& cell = targets[i];
    const GroupKey key{cell.num_inputs(), cell.num_transistors()};
    HybridCellOutcome outcome;
    outcome.cell_index = i;
    outcome.match = index.classify(cell.canonical);
    outcome.conventional_seconds = base.cost.conventional_seconds(cell);
    const auto fit = forests.find(key);
    if (fit == forests.end()) {
      // No model ever reached this group, or its forest failed to train
      // (logged by retrain): simulate conventionally. Accounted in the
      // report, not against the acquisition budget.
      ++report.forced_conventional;
      metrics.forced.add();
    } else {
      try {
        const auto t0 = Clock::now();
        PreparedPrediction& prep = prepared_for(i);
        const std::vector<std::uint8_t> labels =
            fit->second.predict_product(prep.product()).labels();
        const CaModel predicted = finish_prediction(std::move(prep), labels.data());
        prepared[i].reset();  // consumed
        outcome.ml_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
        outcome.accuracy = ca_model_agreement(cell.model, predicted);
        outcome.routed_to_ml = true;
        ++served[key];
        metrics.predicted.add();
      } catch (const Error& e) {
        log_warn() << "active: prediction failed for target " << i << " ("
                   << cell.source.cell.name() << "): " << e.what()
                   << "; falling back to conventional generation";
        outcome.routed_to_ml = false;
        outcome.degraded = true;
        outcome.ml_seconds = 0.0;
        outcome.accuracy = 1.0;
        metrics.degraded.add();
      }
    }
    report.hybrid.outcomes.push_back(outcome);
  }
  if (journal) journal->flush();

  // Amortize each group's training time over the cells it predicted.
  for (HybridCellOutcome& o : report.hybrid.outcomes) {
    if (!o.routed_to_ml) continue;
    const GroupKey key{targets[o.cell_index].num_inputs(),
                       targets[o.cell_index].num_transistors()};
    o.ml_seconds += training_seconds[key] / static_cast<double>(served[key]);
  }

  report.spent = spent;
  report.acquired_mask.assign(acquired.begin(), acquired.end());
  report.acquired = static_cast<std::size_t>(
      std::count(acquired.begin(), acquired.end(), static_cast<char>(1)));
  report.models = GroupModelStore::assemble(std::move(forests), base.ml.matrix);
  return report;
}

}  // namespace caml::active
