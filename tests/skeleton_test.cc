// Structure-sharing skeleton layer: the intern pool must deduplicate the
// structural half of compiled programs across a schedule space, and a
// shared arena must never leak state between programs (every replay
// bit-identical to a fresh-arena replay, in any interleaving).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "sim/compile.h"
#include "sim/desim.h"
#include "sim/launch.h"
#include "sim/sim_cache.h"
#include "target/gpu_spec.h"
#include "tuner/strategy.h"
#include "workloads/ops.h"

namespace alcop {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

::testing::AssertionResult SameTiming(const sim::KernelTiming& a,
                                      const sim::KernelTiming& b) {
  if (a.feasible != b.feasible || a.reason != b.reason) {
    return ::testing::AssertionFailure() << "feasibility differs";
  }
  if (!BitEqual(a.cycles, b.cycles) ||
      !BitEqual(a.microseconds, b.microseconds) ||
      !BitEqual(a.tflops, b.tflops) ||
      !BitEqual(a.batch_cycles, b.batch_cycles) || a.batches != b.batches ||
      a.threadblocks_per_sm != b.threadblocks_per_sm) {
    return ::testing::AssertionFailure()
           << "timing differs: " << a.cycles << " vs " << b.cycles;
  }
  return ::testing::AssertionSuccess();
}

// Feasible programs of one operator's (strided) space, shared from the
// program cache.
std::vector<std::shared_ptr<const sim::SimProgram>> FeasiblePrograms(
    const std::string& op_name, const target::GpuSpec& spec, size_t stride,
    size_t limit) {
  const schedule::GemmOp& op = workloads::FindOp(op_name);
  tuner::TuningTask task = tuner::MakeSimulatorTask(op, spec);
  std::vector<std::shared_ptr<const sim::SimProgram>> programs;
  for (size_t c = 0; c < task.space.size() && programs.size() < limit;
       c += stride) {
    auto program = sim::CachedSimProgram(op, task.space[c], spec);
    if (program->feasible) programs.push_back(std::move(program));
  }
  return programs;
}

TEST(SkeletonPool, DeduplicatesAcrossScheduleSpace) {
  sim::ResetSimCache();
  target::GpuSpec spec = target::AmpereSpec();
  auto programs = FeasiblePrograms("MM_RN50_FC", spec, 4, 200);
  ASSERT_GT(programs.size(), 10u);

  // Schedules differing only numerically share one skeleton object.
  sim::SkeletonPoolStats pool = sim::GetSkeletonPoolStats();
  EXPECT_GT(pool.interns, 0u);
  EXPECT_GT(pool.shared, 0u) << "no structure sharing across the space";
  EXPECT_LT(pool.skeletons, pool.interns);

  // The cache's per-config footprint counts each distinct skeleton once.
  sim::SimCacheStats stats = sim::GetSimCacheStats();
  EXPECT_GT(stats.program_entries, stats.program_skeletons);
  EXPECT_GT(stats.skeleton_bytes, 0u);
  EXPECT_GT(stats.program_bytes_unshared,
            stats.program_bytes + stats.skeleton_bytes);

  // Every feasible program holds a pooled skeleton.
  for (const auto& program : programs) {
    ASSERT_NE(program->program.skeleton, nullptr);
  }
}

TEST(SkeletonPool, InternReturnsExistingEqualSkeleton) {
  sim::ResetSimCache();
  target::GpuSpec spec = target::AmpereSpec();
  auto programs = FeasiblePrograms("MM_RN50_FC", spec, 16, 4);
  ASSERT_FALSE(programs.empty());
  std::shared_ptr<const sim::MicroOpSkeleton> skeleton =
      programs[0]->program.skeleton;

  // A field-for-field copy interns to the same object, not a new one.
  sim::MicroOpSkeleton copy = *skeleton;
  EXPECT_EQ(sim::SkeletonHash(copy), skeleton->hash);
  auto interned = sim::InternSkeleton(std::move(copy));
  EXPECT_EQ(interned.get(), skeleton.get());

  // A structural change (different warp count) makes a distinct entry.
  sim::MicroOpSkeleton changed = *skeleton;
  changed.num_warps += 1;
  changed.hash = sim::SkeletonHash(changed);
  EXPECT_NE(changed.hash, skeleton->hash);
  auto other = sim::InternSkeleton(std::move(changed));
  EXPECT_NE(other.get(), skeleton.get());
}

TEST(SkeletonPool, UncachedCompilesLeaveNoSkeletons) {
  // The pool holds weak references: a skeleton lives exactly as long as
  // the programs holding it, whether or not the cache ever saw them.
  sim::ResetSimCache();
  target::GpuSpec spec = target::AmpereSpec();
  const schedule::GemmOp& op = workloads::FindOp("MM_RN50_FC");
  tuner::TuningTask task = tuner::MakeSimulatorTask(op, spec);
  {
    std::vector<sim::SimProgram> programs;
    for (size_t c = 0; c < task.space.size() && programs.size() < 8; c += 16) {
      sim::SimProgram program = sim::CompileSimProgram(op, task.space[c], spec);
      if (program.feasible) programs.push_back(std::move(program));
    }
    ASSERT_FALSE(programs.empty());
    EXPECT_GT(sim::GetSkeletonPoolStats().skeletons, 0u);
  }
  sim::SkeletonPoolStats pool = sim::GetSkeletonPoolStats();
  EXPECT_EQ(pool.skeletons, 0u);
  EXPECT_EQ(pool.bytes, 0u);
  EXPECT_GT(pool.interns, 0u);
}

TEST(SkeletonReplay, SharedArenaBitExactUnderInterleaving) {
  sim::ResetSimCache();
  target::GpuSpec spec = target::AmpereSpec();
  // Two operators -> a mix of skeletons and wave sizes.
  auto programs = FeasiblePrograms("MM_RN50_FC", spec, 8, 40);
  auto more = FeasiblePrograms("BMM_BERT_QK", spec, 8, 40);
  programs.insert(programs.end(), more.begin(), more.end());
  ASSERT_GT(programs.size(), 20u);

  // Ground truth: every program through its own fresh arena.
  std::vector<sim::KernelTiming> fresh;
  for (const auto& program : programs) {
    sim::ReplayArena arena;
    fresh.push_back(sim::ReplaySimProgram(*program, &arena));
  }

  // One shared arena, adversarial interleaving: forward, backward, and
  // alternating ends, so consecutive replays mix skeletons and wave sizes
  // over the same pooled tables.
  sim::ReplayArena shared;
  std::vector<size_t> order;
  for (size_t i = 0; i < programs.size(); ++i) order.push_back(i);
  for (size_t i = programs.size(); i > 0; --i) order.push_back(i - 1);
  for (size_t i = 0; i < programs.size(); ++i) {
    order.push_back(i % 2 == 0 ? i / 2 : programs.size() - 1 - i / 2);
  }
  for (size_t idx : order) {
    sim::KernelTiming replay = sim::ReplaySimProgram(*programs[idx], &shared);
    EXPECT_TRUE(SameTiming(fresh[idx], replay)) << "program " << idx;
  }
}

TEST(SkeletonPool, ResetSimCacheResetsPoolStats) {
  target::GpuSpec spec = target::AmpereSpec();
  auto programs = FeasiblePrograms("MM_RN50_FC", spec, 64, 4);
  ASSERT_FALSE(programs.empty());
  EXPECT_GT(sim::GetSkeletonPoolStats().interns, 0u);
  sim::ResetSimCache();
  sim::SkeletonPoolStats pool = sim::GetSkeletonPoolStats();
  EXPECT_EQ(pool.skeletons, 0u);
  EXPECT_EQ(pool.interns, 0u);
  // Held programs stay valid after the reset (their shared_ptrs keep the
  // skeletons alive).
  sim::ReplayArena arena;
  sim::KernelTiming timing = sim::ReplaySimProgram(*programs[0], &arena);
  EXPECT_TRUE(timing.feasible);
}

}  // namespace
}  // namespace alcop
