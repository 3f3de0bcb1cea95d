// E9 — switch-level simulator throughput (backs the SPICE cost-model
// calibration in DESIGN.md): steady-state solves per second and defect
// simulations per second across cell sizes.
//
// The defect sweeps exist in two variants so the PR-5 kernel win stays
// measurable: defect_sweep_copy/* is the pre-kernel baseline (per-defect
// inject_defect cell copy + fresh SwitchSim), defect_sweep/* is the
// zero-allocation kernel (DefectOverlay apply/revert + SwitchSim
// rebind). Both record per-defect latency into obs histograms and report
// the run's p50/p99 (snapshot-diffed, so sweep iterations don't bleed
// into each other) plus defect simulations per second.
//
// Gate: whenever a run includes both defect_sweep_copy/<cell> and
// defect_sweep/<cell>, the kernel must simulate at least 2x as many
// defects per second as the baseline on that cell, or main exits 1.
#include <benchmark/benchmark.h>

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "defect/injector.hpp"
#include "defect/overlay.hpp"
#include "defect/universe.hpp"
#include "legacy_switch_sim.hpp"
#include "libgen/builder.hpp"
#include "obs/metrics.hpp"
#include "sim/switch_sim.hpp"
#include "util/strings.hpp"
#include "util/timing.hpp"

namespace {

using namespace caml;

Cell make_cell(const std::string& function, const DriveSpec& drive) {
  const Technology tech = technology_28soi();
  Rng rng(7);
  return build_cell(find_function(function), tech, drive, {"", 1.0}, function, rng);
}

void BM_ApplyPattern(benchmark::State& state, const std::string& function, DriveSpec drive) {
  const Cell cell = make_cell(function, drive);
  SwitchSim sim(cell);
  const InputPattern max = InputPattern{1} << cell.num_inputs();
  InputPattern p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.apply(p));
    p = (p + 1) % max;
  }
  state.counters["transistors"] = static_cast<double>(cell.num_transistors());
}

void BM_TwoPatternRun(benchmark::State& state, const std::string& function, DriveSpec drive) {
  const Cell cell = make_cell(function, drive);
  SwitchSim sim(cell);
  const auto stimuli = generate_stimuli(cell.num_inputs(), StimulusPolicy::kExhaustivePairs);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(stimuli[i]));
    i = (i + 1) % stimuli.size();
  }
}

/// Attaches the run's per-defect latency distribution (p50/p99) and
/// throughput to the benchmark counters via the obs snapshot-diff
/// machinery.
void report_defect_counters(benchmark::State& state, const obs::Histogram& hist,
                            const obs::HistogramSnapshot& before, std::size_t stimuli,
                            std::size_t defects) {
  const obs::HistogramSnapshot delta = hist.snapshot().diff(before);
  state.counters["stimuli"] = static_cast<double>(stimuli);
  state.counters["defects"] = static_cast<double>(defects);
  state.counters["defect_p50_us"] = delta.percentile(0.50);
  state.counters["defect_p99_us"] = delta.percentile(0.99);
  state.counters["defect_sims_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

/// Pre-kernel baseline, measured with the frozen seed simulator
/// (legacy_switch_sim.hpp): one full Cell copy and one freshly allocated
/// simulator per defect, per-stimulus runs, full conduction
/// re-evaluation and a confirming propagation every solve iteration.
void BM_DefectSimulationCopy(benchmark::State& state, const std::string& function,
                             DriveSpec drive) {
  const Cell cell = make_cell(function, drive);
  const auto defects = enumerate_defects(cell);
  const auto stimuli = generate_stimuli(cell.num_inputs(), StimulusPolicy::kExhaustivePairs);
  static obs::Histogram& hist = obs::Registry::global().histogram(
      "bench_defect_copy_us", "Per-defect latency of the copy-based baseline kernel");
  const obs::HistogramSnapshot before = hist.snapshot();
  std::size_t d = 0;
  for (auto _ : state) {
    const Stopwatch watch;
    const Cell faulty = inject_defect(cell, defects[d]);
    LegacySwitchSim sim(faulty);
    Sig out = Sig::kX;
    for (const Stimulus& s : stimuli) out = sim.run(s);
    benchmark::DoNotOptimize(out);
    hist.record(static_cast<std::uint64_t>(std::max<std::int64_t>(watch.elapsed_us(), 0)));
    d = (d + 1) % defects.size();
  }
  report_defect_counters(state, hist, before, stimuli.size(), defects.size());
}

/// PR-5 kernel: in-place DefectOverlay + SwitchSim::rebind, zero heap
/// allocation per defect.
void BM_DefectSimulationOverlay(benchmark::State& state, const std::string& function,
                                DriveSpec drive) {
  const Cell cell = make_cell(function, drive);
  const auto defects = enumerate_defects(cell);
  const auto stimuli = generate_stimuli(cell.num_inputs(), StimulusPolicy::kExhaustivePairs);
  static obs::Histogram& hist = obs::Registry::global().histogram(
      "bench_defect_overlay_us", "Per-defect latency of the overlay kernel");
  const obs::HistogramSnapshot before = hist.snapshot();
  DefectOverlay overlay(cell);
  SwitchSim sim(overlay.cell());
  sim.reserve(cell.num_nets() + DefectOverlay::kMaxExtraNets,
              cell.num_transistors() + DefectOverlay::kMaxExtraTransistors);
  std::vector<Sig> out(stimuli.size(), Sig::kX);
  std::size_t d = 0;
  for (auto _ : state) {
    const Stopwatch watch;
    overlay.apply(defects[d]);
    sim.rebind();
    sim.run_batch(stimuli, out.data());
    overlay.revert();
    benchmark::DoNotOptimize(out.data());
    hist.record(static_cast<std::uint64_t>(std::max<std::int64_t>(watch.elapsed_us(), 0)));
    d = (d + 1) % defects.size();
  }
  report_defect_counters(state, hist, before, stimuli.size(), defects.size());
}

/// Console output plus the defect_sims_per_s of every finished run, keyed
/// by benchmark name, for the kernel gate in main.
class SweepRateReporter : public benchmark::ConsoleReporter {
 public:
  SweepRateReporter() : ConsoleReporter(OO_None) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      const auto rate = run.counters.find("defect_sims_per_s");
      if (run.run_type == Run::RT_Iteration && !run.error_occurred &&
          rate != run.counters.end()) {
        rates[run.benchmark_name()] = rate->second;
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::map<std::string, double> rates;
};

}  // namespace

int main(int argc, char** argv) {
  using V = StructureVariant;
  benchmark::RegisterBenchmark("apply/INVX1",
                               [](benchmark::State& s) { BM_ApplyPattern(s, "INV", {1, V::kWide}); });
  benchmark::RegisterBenchmark("apply/NAND2X1",
                               [](benchmark::State& s) { BM_ApplyPattern(s, "NAND2", {1, V::kWide}); });
  benchmark::RegisterBenchmark("apply/AOI22X4M",
                               [](benchmark::State& s) { BM_ApplyPattern(s, "AOI22", {4, V::kMerged}); });
  benchmark::RegisterBenchmark("apply/XOR3X1",
                               [](benchmark::State& s) { BM_ApplyPattern(s, "XOR3", {1, V::kWide}); });
  benchmark::RegisterBenchmark("two_pattern/NAND3X1", [](benchmark::State& s) {
    BM_TwoPatternRun(s, "NAND3", {1, V::kWide});
  });
  benchmark::RegisterBenchmark("two_pattern/MUX2IX1", [](benchmark::State& s) {
    BM_TwoPatternRun(s, "MUX2I", {1, V::kWide});
  });
  benchmark::RegisterBenchmark("defect_sweep_copy/NAND2X1", [](benchmark::State& s) {
    BM_DefectSimulationCopy(s, "NAND2", {1, V::kWide});
  });
  benchmark::RegisterBenchmark("defect_sweep_copy/AOI21X2S", [](benchmark::State& s) {
    BM_DefectSimulationCopy(s, "AOI21", {2, V::kSplit});
  });
  benchmark::RegisterBenchmark("defect_sweep/NAND2X1", [](benchmark::State& s) {
    BM_DefectSimulationOverlay(s, "NAND2", {1, V::kWide});
  });
  benchmark::RegisterBenchmark("defect_sweep/AOI21X2S", [](benchmark::State& s) {
    BM_DefectSimulationOverlay(s, "AOI21", {2, V::kSplit});
  });
  benchmark::Initialize(&argc, argv);
  SweepRateReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  constexpr double kMinKernelSpeedup = 2.0;
  const std::string kernel = "defect_sweep/";
  int status = 0;
  for (const auto& [name, rate] : reporter.rates) {
    if (name.rfind(kernel, 0) != 0) continue;
    const std::string cell = name.substr(kernel.size());
    const auto baseline = reporter.rates.find("defect_sweep_copy/" + cell);
    if (baseline == reporter.rates.end()) continue;
    const double speedup = rate / baseline->second;
    std::cout << "kernel speedup over defect_sweep_copy on " << cell << ": "
              << format_fixed(speedup, 2) << "x (gate >= " << format_fixed(kMinKernelSpeedup, 1)
              << "x)\n";
    if (speedup < kMinKernelSpeedup) {
      std::cerr << "FAIL: defect_sweep/" << cell << " is below " << kMinKernelSpeedup
                << "x the baseline kernel\n";
      status = 1;
    }
  }
  return status;
}
