// Defect collapsing in generate_ca_model: shorts that build the same
// faulty cell are simulated once and their detections copied. These
// tests check the collapsed models against an independent per-defect
// reference and pin the collapse counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "camodel/generate.hpp"
#include "obs/metrics.hpp"
#include "test_support.hpp"

namespace caml {
namespace {

// Distinct faulty cells in a universe, keyed independently of
// collapse_defects(): a short by (strength, unordered net pair), an open
// by its terminal.
std::size_t distinct_defect_keys(const Cell& cell, const std::vector<Defect>& universe) {
  std::set<std::tuple<DefectKind, DefectStrength, int, int>> keys;
  for (const Defect& d : universe) {
    if (d.kind == DefectKind::kOpen) {
      keys.emplace(d.kind, d.strength, d.a.transistor, static_cast<int>(d.a.terminal));
    } else {
      const NetId na = cell.transistor(d.a.transistor).terminal(d.a.terminal);
      const NetId nb = cell.transistor(d.b.transistor).terminal(d.b.terminal);
      keys.emplace(d.kind, d.strength, std::min(na, nb), std::max(na, nb));
    }
  }
  return keys.size();
}

// One cell per catalog function: a seeded pick among the benchmark
// suite's cells of that function up to drive `max_drive`, or a seeded
// build at drive 1 for functions the suite lacks.
std::vector<std::pair<LibraryCell, Technology>> collapse_sample(int max_drive) {
  const BenchmarkSuite suite = build_benchmark_suite();
  std::map<std::string, std::vector<std::pair<const LibraryCell*, const Library*>>> by_function;
  for (const Library* lib : {&suite.soi28, &suite.c40, &suite.c28}) {
    for (const LibraryCell& cell : lib->cells) {
      if (cell.drive <= max_drive) by_function[cell.function].emplace_back(&cell, lib);
    }
  }
  const std::vector<Technology> techs = default_technologies();
  Rng rng(0xC0'11A9'5E);
  std::vector<std::pair<LibraryCell, Technology>> sample;
  for (const CellFunction& f : function_catalog()) {
    const auto it = by_function.find(f.name);
    if (it != by_function.end()) {
      const auto& [cell, lib] = it->second[rng.below(it->second.size())];
      sample.emplace_back(*cell, lib->technology);
    } else {
      const Technology& tech = techs[rng.below(techs.size())];
      sample.emplace_back(testing::build_function(f.name, tech, {1, StructureVariant::kWide},
                                                  rng.next()),
                          tech);
    }
  }
  return sample;
}

// Collapsed generation against an independent per-defect reference: a
// fresh inject_defect() copy and a fresh simulator per defect, one
// cold run() per stimulus, no run_batch and no collapse.
void expect_collapse_matches_reference(const UniverseOptions& universe, int max_drive) {
  std::size_t merged = 0;
  for (const auto& [lib_cell, tech] : collapse_sample(max_drive)) {
    const Cell& cell = lib_cell.cell;
    GenerationOptions options;
    options.policy = PolicyProfile{}.policy_for(cell.num_inputs());
    options.universe = universe;
    options.sim = tech.sim;
    const CaModel model = generate_ca_model(cell, options);

    CaModel reference = model;
    SwitchSim good(cell, options.sim);
    for (std::size_t s = 0; s < model.stimuli.size(); ++s) {
      ASSERT_EQ(good.run(model.stimuli[s]), model.golden_responses[s]) << cell.name();
    }
    for (CaDefectEntry& e : reference.defects) {
      const Cell faulty = inject_defect(cell, e.defect, options.injection);
      SwitchSim sim(faulty, options.sim);
      for (std::size_t s = 0; s < model.stimuli.size(); ++s) {
        const Sig out = sim.run(model.stimuli[s]);
        e.detection[s] =
            static_cast<std::uint8_t>(sig_is_binary(out) && out != model.golden_responses[s]);
      }
    }
    reference.classify();

    ASSERT_EQ(model.defects.size(), reference.defects.size());
    for (std::size_t d = 0; d < model.defects.size(); ++d) {
      ASSERT_EQ(model.defects[d].detection, reference.defects[d].detection)
          << cell.name() << ": " << model.defects[d].defect.describe(cell);
      ASSERT_EQ(model.defects[d].klass, reference.defects[d].klass) << cell.name();
    }
    ASSERT_EQ(model.equivalence_classes, reference.equivalence_classes) << cell.name();
    merged += model.defects.size() - distinct_defect_keys(cell, enumerate_defects(cell, universe));
  }
  // Not vacuous: the sample exercises the copy path.
  EXPECT_GT(merged, 0u);
}

TEST(Collapse, DefaultUniverseMatchesPerDefectReference) {
  expect_collapse_matches_reference({}, 4);
}

// Inter-transistor shorts grow the universe quadratically in the device
// count, so the full-universe sample stays at drive 1 to keep the
// per-stimulus reference affordable.
TEST(Collapse, FullUniverseMatchesPerDefectReference) {
  UniverseOptions full;
  full.inter_transistor_shorts = true;
  full.resistive_variants = true;
  expect_collapse_matches_reference(full, 1);
}

// The collapse counters split the enumerated universe exactly: one
// solve per distinct faulty cell, one copy per merged defect.
TEST(Collapse, CountersSplitTheUniverse) {
  const auto counter = [](const char* name) -> std::uint64_t {
    const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0 : it->second;
  };
  const Cell cell = testing::build_function("AOI22", technology_28soi(),
                                            {2, StructureVariant::kSplit})
                        .cell;
  GenerationOptions options;
  options.universe.inter_transistor_shorts = true;
  options.universe.resistive_variants = true;
  const std::vector<Defect> universe = enumerate_defects(cell, options.universe);
  const std::size_t distinct = distinct_defect_keys(cell, universe);
  ASSERT_LT(distinct, universe.size());

  const std::uint64_t solves_before = counter("caml_defect_solves_total");
  const std::uint64_t collapsed_before = counter("caml_defects_collapsed_total");
  const CaModel model = generate_ca_model(cell, options);
  const std::uint64_t solved = counter("caml_defect_solves_total") - solves_before;
  const std::uint64_t copied = counter("caml_defects_collapsed_total") - collapsed_before;
  EXPECT_EQ(solved, distinct);
  EXPECT_EQ(copied, universe.size() - distinct);
  EXPECT_EQ(solved + copied, model.defects.size());
}

}  // namespace
}  // namespace caml
