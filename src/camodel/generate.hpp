#pragma once

#include "camodel/ca_model.hpp"
#include "defect/injector.hpp"
#include "defect/universe.hpp"
#include "netlist/cell.hpp"
#include "sim/switch_sim.hpp"

namespace caml {

/// Knobs of the conventional (simulation-based) CA generation flow.
struct GenerationOptions {
  StimulusPolicy policy = StimulusPolicy::kExhaustivePairs;
  UniverseOptions universe;
  InjectionConfig injection;
  SimConfig sim;
};

/// The paper's Fig. 1 conventional flow: enumerate the defect universe,
/// run the defect-free simulation, then simulate every defect against
/// the full stimulus set and record definite detections (golden and
/// faulty outputs binary and different). Defects that build the same
/// faulty cell (collapse_defects()) are simulated once; the model still
/// holds every enumerated defect with its detections. Throws caml::Error
/// if the defect-free cell does not behave combinationally.
CaModel generate_ca_model(const Cell& cell, const GenerationOptions& options = {});

/// The paper's modelled count of electrical simulations for this cell
/// over the enumerated universe (1 golden + one per (defect, stimulus)
/// pair) — the quantity the paper's runtime estimates are built on. Not
/// the number of solves generate_ca_model() performs: it simulates one
/// representative per electrically identical defect group.
std::size_t conventional_simulation_count(const Cell& cell, const GenerationOptions& options = {});

}  // namespace caml
