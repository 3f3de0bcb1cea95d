#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <iostream>
#include <sstream>
#include <thread>
#include <utility>

#include "camodel/model_io.hpp"
#include "flow/characterize.hpp"
#include "flow/model_store.hpp"
#include "ml/dataset.hpp"
#include "ml/forest_io.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace caml {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 10; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum += i; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 55);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  std::future<int> ok = pool.submit([] { return 7; });
  std::future<int> bad = pool.submit([]() -> int { throw Error("task failed"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), Error);
}

TEST(ParallelMap, PreservesInputOrder) {
  // Early items sleep longest, so completion order is roughly reversed;
  // the result must still be in input order.
  std::vector<int> items;
  for (int i = 0; i < 16; ++i) items.push_back(i);
  const std::vector<int> out = parallel_map(items, 4, [](const int& i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(16 - i));
    return i * 10;
  });
  ASSERT_EQ(out.size(), items.size());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[i], i * 10);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  parallel_for(hits.size(), 4, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, RethrowsLowestIndexedException) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    std::atomic<int> completed{0};
    try {
      parallel_for(16, jobs, [&](std::size_t i) {
        if (i == 3 || i == 9) throw ParseError("boom at " + std::to_string(i), i);
        ++completed;
      });
      FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 3u) << "jobs=" << jobs;
    }
    // Non-throwing tasks all ran: one failure does not abandon the rest
    // (serial mode stops at the throw, which is also its documented
    // in-order behavior).
    if (jobs > 1) {
      EXPECT_EQ(completed.load(), 14);
    }
  }
}

TEST(ParallelHelpers, SerialFallbackRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  parallel_for(4, 1, [&](std::size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); });
  const std::vector<int> out =
      parallel_map(std::vector<int>{1, 2, 3}, 1, [&](const int& v) { return v + 1; });
  EXPECT_EQ(out, (std::vector<int>{2, 3, 4}));
}

TEST(ResolveJobs, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(resolve_jobs(0), 1u);
  EXPECT_EQ(resolve_jobs(3), 3u);
}

Library make_parallel_library() {
  Library lib;
  lib.name = "partest";
  lib.technology = technology_28soi();
  std::uint64_t seed = 100;
  for (const char* function : {"INV", "NAND2", "NOR2", "AOI21", "OAI21", "NAND3"}) {
    lib.cells.push_back(testing::build_function(function, lib.technology, {1, StructureVariant::kWide},
                                                seed++));
  }
  return lib;
}

TEST(ParallelDeterminism, CharacterizeLibraryMatchesSerial) {
  const Library lib = make_parallel_library();
  CharacterizeOptions serial;
  serial.jobs = 1;
  const std::vector<CharacterizedCell> a = characterize_library(lib, serial);
  ASSERT_EQ(a.size(), lib.cells.size());
  for (const std::size_t jobs : {2, 4, 8}) {
    CharacterizeOptions parallel;
    parallel.jobs = jobs;
    const std::vector<CharacterizedCell> b = characterize_library(lib, parallel);
    ASSERT_EQ(a.size(), b.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < a.size(); ++i) {
      // Order and content are bit-identical: same cell, same serialized
      // CA model, same canonical signatures.
      EXPECT_EQ(a[i].source.cell.name(), lib.cells[i].cell.name());
      EXPECT_EQ(b[i].source.cell.name(), lib.cells[i].cell.name()) << "jobs=" << jobs;
      EXPECT_EQ(ca_model_to_string(a[i].model, a[i].source.cell),
                ca_model_to_string(b[i].model, b[i].source.cell))
          << "jobs=" << jobs;
      EXPECT_EQ(a[i].canonical.structure_signature, b[i].canonical.structure_signature);
      EXPECT_EQ(a[i].canonical.reduced_signature, b[i].canonical.reduced_signature);
    }
  }
}

TEST(ParallelDeterminism, CharacterizeAlwaysLogsFinalCount) {
  const Library lib = make_parallel_library();  // 6 cells: never hits % 100
  std::ostringstream captured;
  std::streambuf* old = std::clog.rdbuf(captured.rdbuf());
  const LogLevel old_level = Log::level();
  Log::set_level(LogLevel::kInfo);
  characterize_library(lib, {});
  Log::set_level(old_level);
  std::clog.rdbuf(old);
  EXPECT_NE(captured.str().find("characterized 6/6 cells"), std::string::npos) << captured.str();
}

Dataset make_forest_data(std::size_t rows, Rng& rng) {
  Dataset data(6);
  for (std::size_t r = 0; r < rows; ++r) {
    std::int8_t row[6];
    for (auto& v : row) v = static_cast<std::int8_t>(rng.range(-2, 3));
    data.add_row(row, (row[1] > 0) == (row[4] <= 0) ? 1 : 0);
  }
  return data;
}

TEST(ParallelDeterminism, ForestFitMatchesSerialForAnyJobs) {
  Rng rng(91);
  const Dataset train = make_forest_data(1500, rng);
  const Dataset test = make_forest_data(200, rng);

  ForestParams base;
  base.num_trees = 12;
  for (const std::size_t cap : {std::size_t{0}, std::size_t{400}}) {
    base.max_samples_per_tree = cap;

    const auto fit = [&](std::size_t jobs) {
      ForestParams params = base;
      params.jobs = jobs;
      RandomForest forest(params);
      forest.fit(train);
      std::ostringstream os;
      write_forest(os, forest, train.num_features());
      return std::make_pair(os.str(), forest.predict_all(test));
    };
    const auto serial = fit(1);
    for (const std::size_t jobs : {2, 4, 8}) {
      const auto parallel = fit(jobs);
      EXPECT_EQ(serial.first, parallel.first) << "cap=" << cap << " jobs=" << jobs;
      EXPECT_EQ(serial.second, parallel.second) << "jobs=" << jobs;
    }
  }
}

TEST(ParallelDeterminism, GroupStoreTrainingMatchesSerialForAnyJobs) {
  // Groups of several sizes (two drive variants per function), so the
  // largest-first schedule leaves workers idle at odd job counts.
  Library lib = make_parallel_library();
  std::uint64_t seed = 200;
  for (const char* function : {"NAND2", "AOI21", "NAND3", "AOI22"}) {
    lib.cells.push_back(testing::build_function(
        function, lib.technology, {2, StructureVariant::kMerged}, seed++));
  }
  const std::vector<CharacterizedCell> cells = characterize_library(lib, {});
  ASSERT_GE(group_cells(cells).size(), 5u);

  const auto train = [&](std::size_t jobs) {
    MlOptions options;
    options.forest.num_trees = 5;
    options.forest.max_samples_per_tree = 300;
    options.forest.jobs = jobs;
    std::ostringstream os;
    GroupModelStore::train(cells, options).save(os);
    return os.str();
  };
  const std::string serial = train(1);
  for (const std::size_t jobs : {2, 3, 4, 8}) {
    EXPECT_EQ(serial, train(jobs)) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace caml
