#include "camodel/generate.hpp"

#include <algorithm>

#include "defect/overlay.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/evaluator.hpp"
#include "util/timing.hpp"

namespace caml {

CaModel generate_ca_model(const Cell& cell, const GenerationOptions& options) {
  CAML_TRACE_SPAN("generate_ca_model");
  static obs::Histogram& defect_us = obs::Registry::global().histogram(
      "caml_defect_sim_us",
      "Per-solve defect simulation latency (one representative defect, all stimuli) in "
      "microseconds");
  static obs::Counter& solves_total = obs::Registry::global().counter(
      "caml_defect_solves_total", "Representative defects simulated by the conventional flow");
  static obs::Counter& collapsed_total = obs::Registry::global().counter(
      "caml_defects_collapsed_total",
      "Defects whose detections were copied from an electrically identical representative");
  CaModel model;
  model.cell_name = cell.name();
  model.num_inputs = cell.num_inputs();
  model.policy = options.policy;
  model.stimuli = generate_stimuli(cell.num_inputs(), options.policy);

  const GoldenResult golden = simulate_golden(cell, model.stimuli, options.sim);
  model.golden_responses = golden.responses;

  const std::vector<Defect> universe = enumerate_defects(cell, options.universe);
  CAML_TRACE_SPAN_ITEMS("simulate", universe.size() * model.stimuli.size());

  // The defect loop is the hot path of the whole conventional flow. Only
  // one representative per electrically identical group is simulated;
  // every other defect copies its representative's detections, so the
  // model still lists the whole universe in enumeration order. All
  // output storage is sized up front and one (overlay, simulator) pair is
  // reused across defects, so the steady-state loop below performs zero
  // heap allocations: apply() rewires the working cell in place, rebind()
  // re-derives the simulator's CSR structure into reused buffers, and
  // revert() restores the base cell.
  const std::vector<std::uint32_t> representative = collapse_defects(cell, universe);
  model.defects.resize(universe.size());
  for (std::size_t d = 0; d < universe.size(); ++d) {
    model.defects[d].defect = universe[d];
    model.defects[d].detection.resize(model.stimuli.size());
  }
  DefectOverlay overlay(cell, options.injection);
  SwitchSim sim(overlay.cell(), options.sim);
  sim.reserve(cell.num_nets() + DefectOverlay::kMaxExtraNets,
              cell.num_transistors() + DefectOverlay::kMaxExtraTransistors);
  std::vector<Sig> faulty(model.stimuli.size());
  std::uint64_t solves = 0;
  for (std::size_t d = 0; d < universe.size(); ++d) {
    CaDefectEntry& entry = model.defects[d];
    if (representative[d] != d) {
      const std::vector<std::uint8_t>& source = model.defects[representative[d]].detection;
      std::copy(source.begin(), source.end(), entry.detection.begin());
      continue;
    }
    ++solves;
    const Stopwatch watch;
    overlay.apply(entry.defect);
    sim.rebind();
    sim.run_batch(model.stimuli, faulty.data());
    for (std::size_t s = 0; s < model.stimuli.size(); ++s) {
      const Sig good = model.golden_responses[s];
      entry.detection[s] =
          static_cast<std::uint8_t>(sig_is_binary(faulty[s]) && faulty[s] != good ? 1 : 0);
    }
    overlay.revert();
    defect_us.record(static_cast<std::uint64_t>(std::max<std::int64_t>(watch.elapsed_us(), 0)));
  }
  solves_total.add(solves);
  collapsed_total.add(universe.size() - solves);
  model.classify();
  return model;
}

std::size_t conventional_simulation_count(const Cell& cell, const GenerationOptions& options) {
  const std::size_t stimuli = stimulus_count(cell.num_inputs(), options.policy);
  const std::size_t defects = enumerate_defects(cell, options.universe).size();
  return 1 + stimuli * defects;
}

}  // namespace caml
