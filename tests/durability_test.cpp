// Crash-safety tests: checkpoint journal semantics, durable artifact
// round-trips with corruption rejection, characterize resume
// determinism, graceful degradation of the generation flow, and (under
// -DCAML_FAULT_INJECTION=ON) a real SIGKILL mid-run followed by a
// byte-compare against an uninterrupted run.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "active/learner.hpp"
#include "camodel/model_io.hpp"
#include "flow/characterize.hpp"
#include "flow/checkpoint.hpp"
#include "flow/model_store.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/io.hpp"

namespace caml {
namespace {

namespace fs = std::filesystem;

using testing::build_function;
using testing::characterize;

std::string temp_dir(const char* tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("caml_dur_" + std::to_string(::getpid()) + "_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// filename -> full contents for every regular file directly in `dir`.
std::map<std::string, std::string> snapshot_dir(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      files[entry.path().filename().string()] = slurp(entry.path().string());
    }
  }
  return files;
}

/// Corrupts one byte near the end of a file (payload region of a framed
/// artifact — past the header, so the CRC is what must catch it).
void flip_tail_byte(const std::string& path) {
  std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 4u);
  bytes[bytes.size() - 3] ^= 0x10;
  io::write_file_atomic(path, bytes);
}

/// A cheap three-cell library (small cells, exhaustive policy still
/// fast) for the characterize checkpoint tests.
Library small_library() {
  const Technology tech = technology_28soi();
  Library lib;
  lib.name = "chk";
  lib.technology = tech;
  lib.cells.push_back(build_function("INV", tech, {1, StructureVariant::kWide}, 11));
  lib.cells.push_back(build_function("NAND2", tech, {1, StructureVariant::kWide}, 12));
  lib.cells.push_back(build_function("NOR2", tech, {1, StructureVariant::kWide}, 13));
  return lib;
}

// ---------------------------------------------------------------------------
// Checkpoint journal

TEST(CheckpointJournal, RoundTripsUnitsAndPayloads) {
  const std::string dir = temp_dir("journal");
  {
    CheckpointJournal journal(dir, 2);
    journal.record("cell:b", "payload b");
    journal.record("cell:a");
    journal.record("cell:c", "payload c");
    journal.flush();
    EXPECT_EQ(journal.size(), 3u);
  }
  CheckpointJournal back(dir, 2);
  back.load();
  EXPECT_EQ(back.size(), 3u);
  EXPECT_TRUE(back.completed("cell:a"));
  EXPECT_TRUE(back.completed("cell:b"));
  EXPECT_FALSE(back.completed("cell:d"));
  EXPECT_EQ(back.payload("cell:b"), "payload b");
  EXPECT_EQ(back.payload("cell:a"), "");
  EXPECT_EQ(back.payload("cell:d"), "");
}

TEST(CheckpointJournal, FileBytesIndependentOfCompletionOrder) {
  const std::string dir_a = temp_dir("order_a");
  const std::string dir_b = temp_dir("order_b");
  CheckpointJournal a(dir_a, 0);
  CheckpointJournal b(dir_b, 0);
  // Same unit set, opposite completion order — e.g. two runs with
  // different thread schedules — must leave byte-identical journals.
  for (const char* unit : {"u1", "u2", "u3"}) a.record(unit, std::string("p-") + unit);
  for (const char* unit : {"u3", "u2", "u1"}) b.record(unit, std::string("p-") + unit);
  a.flush();
  b.flush();
  EXPECT_EQ(slurp(a.path()), slurp(b.path()));
}

TEST(CheckpointJournal, MissingJournalLoadsEmpty) {
  CheckpointJournal journal(temp_dir("empty"), 4);
  journal.load();
  EXPECT_EQ(journal.size(), 0u);
}

TEST(CheckpointJournal, CorruptJournalIsDiscardedNotTrusted) {
  const std::string dir = temp_dir("corrupt");
  {
    CheckpointJournal journal(dir, 1);
    journal.record("cell:a");
    journal.record("cell:b");
  }
  const std::string path = (fs::path(dir) / CheckpointJournal::kFileName).string();
  flip_tail_byte(path);
  CheckpointJournal back(dir, 1);
  back.load();  // warns and discards; resume re-runs everything
  EXPECT_EQ(back.size(), 0u);

  // Same for a journal replaced by plain garbage.
  io::write_file_atomic(path, "not a journal at all\n");
  CheckpointJournal again(dir, 1);
  again.load();
  EXPECT_EQ(again.size(), 0u);
}

// ---------------------------------------------------------------------------
// Durable artifacts reject corruption

TEST(DurableArtifacts, ModelStoreFileRoundTripAndCorruptionRejected) {
  const Technology tech = technology_28soi();
  std::vector<CharacterizedCell> training;
  training.push_back(characterize(build_function("INV", tech, {1, StructureVariant::kWide}, 3), tech));
  MlOptions ml;
  ml.forest.num_trees = 4;
  const GroupModelStore store = GroupModelStore::train(training, ml);

  const std::string dir = temp_dir("store");
  const std::string path = dir + "/models.caml";
  store.save_file(path);

  const GroupModelStore loaded = GroupModelStore::load_file(path);
  EXPECT_EQ(loaded.num_groups(), store.num_groups());

  // An unframed store is rejected: nothing writes one.
  std::ostringstream unframed;
  store.save(unframed);
  io::write_file_atomic(dir + "/unframed.caml", unframed.str());
  EXPECT_THROW(GroupModelStore::load_file(dir + "/unframed.caml"), ParseError);

  // A flipped payload byte fails loud with the file named in the error.
  flip_tail_byte(path);
  try {
    GroupModelStore::load_file(path);
    FAIL() << "expected ParseError for corrupt store";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  // Truncation (the classic partial-copy failure) is rejected too.
  io::write_checksummed_file(path, "models", unframed.str());
  std::string framed = slurp(path);
  framed.resize(framed.size() / 2);
  io::write_file_atomic(path, framed);
  EXPECT_THROW(GroupModelStore::load_file(path), ParseError);
}

TEST(DurableArtifacts, CaModelFileRoundTripFramedAndLegacy) {
  const Technology tech = technology_28soi();
  const LibraryCell cell = build_function("NAND2", tech, {1, StructureVariant::kWide}, 5);
  const CharacterizedCell cc = characterize(cell, tech);

  const std::string dir = temp_dir("camodel");
  const std::string path = dir + "/cell.camodel";
  write_ca_model_file(path, cc.model, cell.cell);
  const CaModel back = read_ca_model_file(path, cell.cell);
  EXPECT_EQ(ca_model_to_string(back, cell.cell), ca_model_to_string(cc.model, cell.cell));

  // Legacy raw artifact (pre-framing characterize output).
  io::write_file_atomic(dir + "/legacy.camodel", ca_model_to_string(cc.model, cell.cell));
  const CaModel legacy = read_ca_model_file(dir + "/legacy.camodel", cell.cell);
  EXPECT_EQ(ca_model_to_string(legacy, cell.cell), ca_model_to_string(cc.model, cell.cell));

  flip_tail_byte(path);
  EXPECT_THROW(read_ca_model_file(path, cell.cell), ParseError);
}

// ---------------------------------------------------------------------------
// Characterize checkpoint/resume

TEST(CharacterizeCheckpoint, ResumeReproducesUninterruptedRunExactly) {
  const Library lib = small_library();

  // Reference: one uninterrupted checkpointed run.
  CharacterizeOptions ref_opts;
  ref_opts.jobs = 1;
  ref_opts.checkpoint.dir = temp_dir("ref");
  ref_opts.checkpoint.every = 1;
  const std::vector<CharacterizedCell> reference = characterize_library(lib, ref_opts);

  // The artifact reader (resume and `caml train`'s input) rebuilds every
  // cell the run returned.
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const CharacterizedCell back =
        read_characterized_cell(lib.cells[i], lib.technology, ref_opts.checkpoint.dir);
    EXPECT_EQ(ca_model_to_string(back.model, back.source.cell),
              ca_model_to_string(reference[i].model, reference[i].source.cell))
        << lib.cells[i].cell.name();
    EXPECT_EQ(back.canonical.structure_signature, reference[i].canonical.structure_signature);
    EXPECT_EQ(back.canonical.reduced_signature, reference[i].canonical.reduced_signature);
    EXPECT_TRUE(back.sim == reference[i].sim);
  }

  // Interrupted run: only the first cell completes (a sub-library stands
  // in for a crash — the journal and artifact state is exactly what a
  // kill after cell 1 leaves behind, with every=1).
  CharacterizeOptions part_opts = ref_opts;
  part_opts.checkpoint.dir = temp_dir("resumed");
  Library prefix = lib;
  prefix.cells.resize(1);
  characterize_library(prefix, part_opts);

  // Resume over the full library: completed cells load from artifacts,
  // the rest characterize fresh.
  CharacterizeOptions resume_opts = part_opts;
  resume_opts.checkpoint.resume = true;
  const std::vector<CharacterizedCell> resumed = characterize_library(lib, resume_opts);

  ASSERT_EQ(resumed.size(), reference.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_EQ(ca_model_to_string(resumed[i].model, resumed[i].source.cell),
              ca_model_to_string(reference[i].model, reference[i].source.cell))
        << lib.cells[i].cell.name();
    EXPECT_EQ(resumed[i].canonical.structure_signature,
              reference[i].canonical.structure_signature);
  }
  // The checkpoint directories — artifacts and journal — are
  // byte-identical: resuming leaves no trace of the interruption.
  EXPECT_EQ(snapshot_dir(resume_opts.checkpoint.dir), snapshot_dir(ref_opts.checkpoint.dir));
}

TEST(CharacterizeCheckpoint, CorruptArtifactIsRecharacterizedOnResume) {
  const Library lib = small_library();
  CharacterizeOptions opts;
  opts.jobs = 1;
  opts.checkpoint.dir = temp_dir("recover");
  opts.checkpoint.every = 1;
  const std::vector<CharacterizedCell> first = characterize_library(lib, opts);

  // Corrupt one completed artifact; resume must fall back to
  // re-simulation for that cell instead of failing or trusting it.
  const std::string victim =
      opts.checkpoint.dir + "/" + lib.cells[1].cell.name() + ".camodel";
  flip_tail_byte(victim);

  CharacterizeOptions resume_opts = opts;
  resume_opts.checkpoint.resume = true;
  const std::vector<CharacterizedCell> resumed = characterize_library(lib, resume_opts);
  ASSERT_EQ(resumed.size(), first.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_EQ(ca_model_to_string(resumed[i].model, resumed[i].source.cell),
              ca_model_to_string(first[i].model, first[i].source.cell));
  }
  // The re-characterized artifact is durable and valid again.
  EXPECT_NO_THROW(read_ca_model_file(victim, lib.cells[1].cell));
}

// ---------------------------------------------------------------------------
// Generation flow: graceful degradation

TEST(HybridDegradation, MlFailureFallsBackToConventional) {
  // One NAND2 training cell and one NAND2 twin target (same structure,
  // different seed): the minimal corpus where the target routes to ML.
  const Technology tech = technology_28soi();
  std::vector<CharacterizedCell> training;
  training.push_back(
      characterize(build_function("NAND2", tech, {1, StructureVariant::kWide}, 21), tech));
  std::vector<CharacterizedCell> targets;
  targets.push_back(
      characterize(build_function("NAND2", tech, {1, StructureVariant::kWide}, 22), tech));

  active::ActiveOptions options;
  options.base.routing = RoutingPolicy::kStructural;
  options.base.ml.forest.num_trees = 4;
  options.base.ml.matrix.include_free_rows = false;  // defect rows only
  // Sanity: with a healthy training cell the target routes to ML.
  const active::ActiveReport healthy = active::run_active_flow(training, targets, options);
  ASSERT_EQ(healthy.hybrid.count_routed_to_ml(), 1u);
  ASSERT_EQ(healthy.forced_conventional, 0u);

  // A training model without defects gives the group zero training
  // rows, so its forest cannot be fitted — a stand-in for a missing or
  // broken group model. The run must complete, count the fallback, and
  // charge the cell its conventional cost.
  training[0].model.defects.clear();
  const active::ActiveReport degraded = active::run_active_flow(training, targets, options);
  ASSERT_EQ(degraded.hybrid.outcomes.size(), 1u);
  EXPECT_EQ(degraded.acquired, 0u);
  EXPECT_EQ(degraded.forced_conventional, 1u);
  EXPECT_EQ(degraded.hybrid.count_routed_to_ml(), 0u);
  EXPECT_EQ(degraded.models.num_groups(), 0u);
  EXPECT_FALSE(degraded.hybrid.outcomes[0].routed_to_ml);
  EXPECT_DOUBLE_EQ(degraded.hybrid.outcomes[0].accuracy, 1.0);
  EXPECT_DOUBLE_EQ(degraded.hybrid.hybrid_seconds(), degraded.hybrid.conventional_only_seconds());
}

// ---------------------------------------------------------------------------
// Real crash: SIGKILL mid-run, then resume (fault-injection builds only)

TEST(DurabilityFault, KillMidRunThenResumeIsByteIdentical) {
  if (!fault::enabled()) GTEST_SKIP() << "built without CAML_FAULT_INJECTION";

  const Library lib = small_library();
  CharacterizeOptions opts;
  opts.jobs = 1;  // deterministic op order in the child
  opts.checkpoint.every = 1;

  // Reference: uninterrupted run.
  opts.checkpoint.dir = temp_dir("kill_ref");
  characterize_library(lib, opts);
  const auto reference = snapshot_dir(opts.checkpoint.dir);

  // Crash run: a forked child SIGKILLs itself at the 4th persistence
  // operation (mid-library: each cell costs an artifact write+rename
  // plus a journal write+rename with every=1).
  opts.checkpoint.dir = temp_dir("kill_run");
  const std::string crash_dir = opts.checkpoint.dir;
  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    fault::arm({"*", fault::Kind::kKill, 4, 0});
    CharacterizeOptions child_opts = opts;
    characterize_library(lib, child_opts);
    ::_exit(7);  // ran to completion: the fault never fired
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited with " << WEXITSTATUS(status);
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The interrupted directory holds only verifiable state: every
  // artifact present either validates or is ignored by resume.
  CharacterizeOptions resume_opts = opts;
  resume_opts.checkpoint.resume = true;
  characterize_library(lib, resume_opts);
  EXPECT_EQ(snapshot_dir(crash_dir), reference);
}

}  // namespace
}  // namespace caml
