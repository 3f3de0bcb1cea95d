// Workload `characterize`: the conventional simulation flow over the
// whole three-library suite with inter-transistor shorts. The sim,
// defect and camodel layers do nearly all the work; ml and serve do
// none.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <tuple>

#include "camodel/model_io.hpp"
#include "flow/characterize.hpp"
#include "report.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace caml;

/// FNV-1a 64 digests of the (technology, name)-sorted CA models of a full pass.
/// The seed only permutes cell order, so the digest is seed-independent.
constexpr std::uint64_t kReferenceDigest = 0x91571f2d9f712702ull;
constexpr std::uint64_t kSmokeReferenceDigest = 0x5e8183097724aa5bull;

/// Library generation takes milliseconds and the host's speed shifts over tens of
/// milliseconds, so the median is taken over about a second of repeats.
constexpr int kSetupRepeats = 101;

struct Job {
  const LibraryCell* cell = nullptr;
  const Technology* tech = nullptr;
};

CharacterizeOptions characterize_options() {
  CharacterizeOptions options;
  options.policy.exhaustive_max_inputs = 4;
  options.universe.inter_transistor_shorts = true;
  return options;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t digest(const std::vector<CharacterizedCell>& cells) {
  std::vector<const CharacterizedCell*> sorted;
  for (const CharacterizedCell& c : cells) sorted.push_back(&c);
  // Cell names repeat across technologies, so sort by (technology, name).
  std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
    return std::tie(a->source.technology, a->source.cell.name()) <
           std::tie(b->source.technology, b->source.cell.name());
  });
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const CharacterizedCell* c : sorted) {
    h = fnv1a(h, c->source.technology);
    h = fnv1a(h, c->source.cell.name());
    h = fnv1a(h, ca_model_to_string(c->model, c->source.cell));
  }
  return h;
}

struct Pass {
  double wall_s = 0.0;
  std::vector<double> cell_ms;  ///< per-cell latency, pass order
  std::uint64_t digest = 0;
};

/// One untraced pass: characterize_cell for every cell on a pool of
/// `jobs` workers (the body of characterize_library, with each cell
/// timed).
Pass run_pass(const std::vector<Job>& jobs_list, std::size_t jobs) {
  const CharacterizeOptions options = characterize_options();
  Pass pass;
  pass.cell_ms.resize(jobs_list.size());
  const Clock::time_point t0 = Clock::now();
  std::vector<std::size_t> index(jobs_list.size());
  for (std::size_t i = 0; i < index.size(); ++i) index[i] = i;
  const std::vector<CharacterizedCell> cells =
      parallel_map(index, jobs, [&](std::size_t i) {
        const Clock::time_point c0 = Clock::now();
        CharacterizedCell out = characterize_cell(*jobs_list[i].cell, *jobs_list[i].tech, options);
        pass.cell_ms[i] = seconds_since(c0) * 1e3;
        return out;
      });
  pass.wall_s = seconds_since(t0);
  pass.digest = digest(cells);
  return pass;
}

/// The traced pass: the same per-cell work split into its layer calls
/// (enumerate_defects is called once more on its own to time it).
struct TracedPass {
  double wall_s = 0.0;
  double busy_s = 0.0;
  std::uint64_t defect_sims = 0;
};

TracedPass run_traced_pass(const std::vector<Job>& jobs_list, std::size_t jobs, Ledger& ledger) {
  const CharacterizeOptions options = characterize_options();
  std::atomic<std::uint64_t> sims{0};
  std::vector<double> busy(jobs_list.size(), 0.0);
  std::vector<std::size_t> index(jobs_list.size());
  for (std::size_t i = 0; i < index.size(); ++i) index[i] = i;
  const Clock::time_point t0 = Clock::now();
  parallel_for(index.size(), jobs, [&](std::size_t i) {
    const Clock::time_point c0 = Clock::now();
    const Ledger::Scope cell_span = ledger.span("flow.characterize_cell");
    const LibraryCell& cell = *jobs_list[i].cell;
    GenerationOptions gen;
    gen.policy = options.policy.policy_for(cell.cell.num_inputs());
    gen.universe = options.universe;
    gen.injection = options.injection;
    gen.sim = jobs_list[i].tech->sim;
    in_span(ledger, "defect.enumerate", [&] { return enumerate_defects(cell.cell, gen.universe); });
    const CaModel model =
        in_span(ledger, "camodel.generate", [&] { return generate_ca_model(cell.cell, gen); });
    in_span(ledger, "camatrix.canonicalize", [&] { return canonicalize(cell.cell, gen.sim); });
    sims += static_cast<std::uint64_t>(model.defects.size()) * model.stimuli.size();
    busy[i] = seconds_since(c0);
  });
  TracedPass out;
  out.wall_s = seconds_since(t0);
  for (const double b : busy) out.busy_s += b;
  out.defect_sims = sims.load();
  return out;
}

}  // namespace

Result run_characterize(const RunOptions& options, Ledger& ledger) {
  Result result;

  // Set-up: library generation, repeated; the median is reported.
  std::vector<double> setup_s;
  BenchmarkSuite suite;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    suite = make_suite(options.smoke);
    setup_s.push_back(seconds_since(t0));
  }
  std::vector<Job> jobs_list;
  for (const Library* lib : {&suite.soi28, &suite.c40, &suite.c28}) {
    for (const LibraryCell& cell : lib->cells) jobs_list.push_back({&cell, &lib->technology});
  }
  SeededRng rng(options.seed);
  shuffle(jobs_list, rng);
  std::cerr << "perfbench: characterize " << jobs_list.size() << " cells per pass\n";

  // Measured passes: keep going while another pass fits the budget
  // (stop once the next one would overshoot it by more than half).
  const std::uint64_t reference = options.smoke ? kSmokeReferenceDigest : kReferenceDigest;
  std::vector<Pass> passes;
  double measured = 0.0;
  do {
    passes.push_back(run_pass(jobs_list, options.jobs));
    const Pass& p = passes.back();
    measured += p.wall_s;
    const bool ok = p.digest == reference;
    if (!ok) {
      char hex[32];
      std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(p.digest));
      std::cerr << "perfbench: characterize digest mismatch: got 0x" << hex << '\n';
    }
    result.count(jobs_list.size(), ok ? 0 : jobs_list.size());
  } while (measured + 0.5 * passes.back().wall_s < options.seconds);

  std::vector<double> cell_ms;
  for (const Pass& p : passes) cell_ms.insert(cell_ms.end(), p.cell_ms.begin(), p.cell_ms.end());
  const double cells_per_s =
      static_cast<double>(jobs_list.size() * passes.size()) / measured;

  result.e2e("setup_s", median(setup_s), "s");
  result.e2e("peak_rss_mb", self_peak_rss_mb(), "MB");
  result.e2e("throughput_per_s", cells_per_s, "1/s");
  result.e2e("p50_ms", quantile(cell_ms, 0.5), "ms");
  result.e2e("p99_ms", quantile(cell_ms, 0.99), "ms");
  result.e2e("accuracy", result.failed == 0 ? 1.0 : 0.0, "ratio");

  if (ledger.enabled()) {
    const TracedPass traced = run_traced_pass(jobs_list, options.jobs, ledger);
    const double generate_s = ledger.total_seconds("camodel.generate");
    const double capacity = traced.wall_s * static_cast<double>(options.jobs);
    const double layers = generate_s + ledger.total_seconds("defect.enumerate") +
                          ledger.total_seconds("camatrix.canonicalize");
    const double idle = capacity - traced.busy_s;
    std::vector<double> untraced_wall;
    for (const Pass& p : passes) untraced_wall.push_back(p.wall_s);
    const double base = median(untraced_wall);
    result.layer("characterize.cells_per_s", cells_per_s, "1/s");
    result.layer("camodel.generate_s", generate_s, "s");
    result.layer("sim.defect_sims", static_cast<double>(traced.defect_sims), "count");
    result.layer("sim.defect_sims_per_s", static_cast<double>(traced.defect_sims) / generate_s,
                 "1/s");
    result.layer("defect.enumerate_s", ledger.total_seconds("defect.enumerate"), "s");
    result.layer("camatrix.canonicalize_s", ledger.total_seconds("camatrix.canonicalize"), "s");
    result.layer("util.pool_efficiency", traced.busy_s / capacity, "ratio");
    result.layer("characterize.cell_p99_ms", quantile(cell_ms, 0.99), "ms");
    result.layer("characterize.cell_max_ms", *std::max_element(cell_ms.begin(), cell_ms.end()),
                 "ms");
    result.layer("latency.samples", static_cast<double>(cell_ms.size()), "count");
    result.layer("trace.overhead_share", (traced.wall_s - base) / base, "ratio");
    // Worker idle time belongs to the pool layer (util), so only the
    // benchmark's own per-cell glue is unattributed.
    result.layer("unattributed_share", 1.0 - (layers + idle) / capacity, "ratio");
  }
  return result;
}

}  // namespace perfbench
