#include "flow/characterize.hpp"

#include <atomic>
#include <filesystem>
#include <optional>

#include "camodel/model_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "util/timing.hpp"

namespace caml {

namespace {

std::string artifact_path(const std::string& dir, const std::string& cell_name) {
  return (std::filesystem::path(dir) / (cell_name + ".camodel")).string();
}

}  // namespace

CharacterizedCell read_characterized_cell(const LibraryCell& cell, const Technology& tech,
                                          const std::string& dir) {
  CharacterizedCell out;
  out.source = cell;
  out.model = read_ca_model_file(artifact_path(dir, cell.cell.name()), cell.cell);
  out.sim = tech.sim;
  out.canonical = canonicalize(cell.cell, out.sim);
  return out;
}

CharacterizedCell characterize_cell(const LibraryCell& cell, const Technology& tech,
                                    const CharacterizeOptions& options) {
  obs::TraceSpan span("characterize_cell");
  span.attr("cell", cell.cell.name());
  GenerationOptions gen;
  gen.policy = options.policy.policy_for(cell.cell.num_inputs());
  gen.universe = options.universe;
  gen.injection = options.injection;
  gen.sim = tech.sim;

  CharacterizedCell out;
  out.source = cell;
  out.model = generate_ca_model(cell.cell, gen);
  out.canonical = canonicalize(cell.cell, gen.sim);
  out.sim = gen.sim;
  return out;
}

std::vector<CharacterizedCell> characterize_library(const Library& library,
                                                    const CharacterizeOptions& options) {
  const std::size_t total = library.cells.size();
  std::optional<CheckpointJournal> journal;
  if (options.checkpoint.enabled()) {
    journal.emplace(options.checkpoint.dir, options.checkpoint.every);
    if (options.checkpoint.resume) journal->load();
  }
  // Each cell's characterization is a pure function of (cell, tech,
  // options), so the parallel map is bit-identical to the serial loop
  // for any thread count; parallel_map reassembles results in library
  // order. Progress counts completions (not positions) so the log stays
  // monotonic under concurrency, and the final N/N line always fires.
  //
  // With checkpointing, a cell's artifact is made durable before the
  // journal records it (journal-after-data): a crash between the two
  // only costs a re-simulation, never yields a journal entry without a
  // verifiable artifact.
  // Progress logging is time-gated (not every-N): under a high --jobs
  // count a per-cell (or per-100-cells) line would serialize workers on
  // the log mutex. The final N/N line is emitted unconditionally.
  CAML_TRACE_SPAN_ITEMS("characterize_library", total);
  static obs::Counter& cells_counter = obs::Registry::global().counter(
      "caml_cells_characterized_total", "Cells characterized by the conventional flow");
  static obs::Histogram& cell_us = obs::Registry::global().histogram(
      "caml_characterize_cell_us", "Per-cell characterization latency in microseconds");
  LogRateLimiter progress_gate(500'000);
  std::atomic<std::size_t> done{0};
  std::vector<CharacterizedCell> result =
      parallel_map(library.cells, options.jobs, [&](const LibraryCell& cell) {
        const Stopwatch watch;
        std::optional<CharacterizedCell> out;
        if (journal && journal->completed(cell.cell.name())) {
          try {
            out = read_characterized_cell(cell, library.technology, options.checkpoint.dir);
          } catch (const Error& e) {
            log_warn() << "checkpoint artifact for " << cell.cell.name()
                       << " is missing or corrupt (" << e.what() << "); re-characterizing";
          }
        }
        if (!out) {
          out = characterize_cell(cell, library.technology, options);
          if (journal) {
            write_ca_model_file(artifact_path(options.checkpoint.dir, cell.cell.name()),
                                out->model, cell.cell);
            journal->record(cell.cell.name());
          }
        }
        cells_counter.add();
        cell_us.record(static_cast<std::uint64_t>(std::max<std::int64_t>(watch.elapsed_us(), 0)));
        const std::size_t finished = done.fetch_add(1, std::memory_order_relaxed) + 1;
        if (finished == total || progress_gate.allow(monotonic_us())) {
          log_info() << library.name << ": characterized " << finished << "/" << total
                     << " cells";
        }
        return std::move(*out);
      });
  if (journal) journal->flush();
  return result;
}

}  // namespace caml
