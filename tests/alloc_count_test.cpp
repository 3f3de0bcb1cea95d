// Proof of the "zero per-defect heap allocations" claim: global
// operator new/delete are replaced with counting versions, the
// overlay + rebind + run_batch loop runs once to populate every
// reserved buffer, and a second full pass over the defect universe must
// then perform exactly zero allocations — also when, as in
// generate_ca_model, only collapse_defects() representatives are solved
// and merged defects copy their representative's outputs.
//
// This lives in its own test binary (not caml_tests) because replacing
// the global allocator is program-wide; it is also excluded from
// sanitizer builds, which interpose their own new/delete.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>

#include "defect/overlay.hpp"
#include "defect/universe.hpp"
#include "libgen/builder.hpp"
#include "sim/switch_sim.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace caml {
namespace {

void expect_zero_alloc_sweep(const std::string& function, const DriveSpec& drive,
                             const UniverseOptions& universe_options,
                             bool representatives_only = false) {
  const Technology tech = technology_28soi();
  Rng rng(7);
  const Cell cell = build_cell(find_function(function), tech, drive, {"", 1.0}, function, rng);
  const std::vector<Defect> universe = enumerate_defects(cell, universe_options);
  const auto stimuli = generate_stimuli(cell.num_inputs(), StimulusPolicy::kExhaustivePairs);
  ASSERT_FALSE(universe.empty());

  DefectOverlay overlay(cell);
  SwitchSim sim(overlay.cell());
  sim.reserve(cell.num_nets() + DefectOverlay::kMaxExtraNets,
              cell.num_transistors() + DefectOverlay::kMaxExtraTransistors);
  // As generate_ca_model does: the representative map and the
  // per-defect output storage are allocated before the loop; merged
  // defects copy their representative's outputs.
  std::vector<std::uint32_t> representative(universe.size());
  std::iota(representative.begin(), representative.end(), 0u);
  if (representatives_only) representative = collapse_defects(cell, universe);
  std::vector<std::vector<Sig>> outputs(universe.size(), std::vector<Sig>(stimuli.size()));

  const auto sweep = [&] {
    for (std::size_t d = 0; d < universe.size(); ++d) {
      if (representative[d] != d) {
        const std::vector<Sig>& source = outputs[representative[d]];
        std::copy(source.begin(), source.end(), outputs[d].begin());
        continue;
      }
      overlay.apply(universe[d]);
      sim.rebind();
      sim.run_batch(stimuli, outputs[d].data());
      overlay.revert();
    }
  };

  // Warmup: grows any buffer whose high-water mark reserve() cannot
  // know up front (e.g. the run_batch initial-state snapshot).
  sweep();

  g_allocations.store(0);
  g_counting.store(true);
  sweep();
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << function << ": steady-state defect loop allocated on the heap";
}

TEST(AllocationCount, DefectSweepSteadyStateIsAllocationFree) {
  expect_zero_alloc_sweep("NAND2", {1, StructureVariant::kWide}, {});
}

TEST(AllocationCount, FullUniverseSweepSteadyStateIsAllocationFree) {
  UniverseOptions options;
  options.inter_transistor_shorts = true;
  options.resistive_variants = true;
  expect_zero_alloc_sweep("AOI21", {2, StructureVariant::kSplit}, options);
}

TEST(AllocationCount, CollapsedFullUniverseSweepSteadyStateIsAllocationFree) {
  UniverseOptions options;
  options.inter_transistor_shorts = true;
  options.resistive_variants = true;
  expect_zero_alloc_sweep("AOI21", {2, StructureVariant::kSplit}, options,
                          /*representatives_only=*/true);
}

}  // namespace
}  // namespace caml
