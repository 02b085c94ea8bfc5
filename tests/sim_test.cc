// Tests of the timing-simulation stack: trace building, the discrete-event
// SM simulator, occupancy, traffic analysis, and the qualitative
// performance properties the paper's claims rest on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "pipeline/detect.h"
#include "pipeline/transform.h"
#include "schedule/lower.h"
#include "sim/desim.h"
#include "sim/launch.h"
#include "sim/trace.h"
#include "support/check.h"
#include "target/gpu_spec.h"
#include "target/occupancy.h"

namespace alcop {
namespace {

using schedule::GemmOp;
using schedule::MakeMatmul;
using schedule::ScheduleConfig;

ScheduleConfig BigConfig(int smem_stages, int reg_stages) {
  ScheduleConfig config;
  config.tile = {.tb_m = 128, .tb_n = 128, .tb_k = 32,
                 .warp_m = 64, .warp_n = 64, .warp_k = 16};
  config.smem_stages = smem_stages;
  config.reg_stages = reg_stages;
  return config;
}

// ---- Occupancy ----

TEST(OccupancyTest, SharedMemoryLimits) {
  target::GpuSpec spec = target::AmpereSpec();
  target::ThreadblockResources res;
  res.smem_bytes = 48 * 1024;
  res.reg_bytes = 16 * 1024;
  res.warps = 4;
  target::Occupancy occ = target::ComputeOccupancy(spec, res);
  EXPECT_EQ(occ.threadblocks_per_sm, 3);  // 164KB / 48KB
  EXPECT_EQ(occ.limiter, target::Occupancy::Limiter::kSharedMemory);
}

TEST(OccupancyTest, DoesNotFit) {
  target::GpuSpec spec = target::AmpereSpec();
  target::ThreadblockResources res;
  res.smem_bytes = 200 * 1024;  // exceeds the SM
  res.warps = 4;
  target::Occupancy occ = target::ComputeOccupancy(spec, res);
  EXPECT_EQ(occ.threadblocks_per_sm, 0);
}

TEST(OccupancyTest, WarpSlotLimit) {
  target::GpuSpec spec = target::AmpereSpec();
  target::ThreadblockResources res;
  res.smem_bytes = 1024;
  res.reg_bytes = 1024;
  res.warps = 16;
  target::Occupancy occ = target::ComputeOccupancy(spec, res);
  EXPECT_EQ(occ.threadblocks_per_sm, 4);  // 64 warp slots / 16
  EXPECT_EQ(occ.limiter, target::Occupancy::Limiter::kWarpSlots);
}

TEST(OccupancyTest, BatchCount) {
  target::GpuSpec spec = target::AmpereSpec();
  target::ThreadblockResources res;
  res.warps = 4;
  res.smem_bytes = 64 * 1024;  // 2 per SM
  target::Occupancy occ = target::ComputeOccupancy(spec, res);
  ASSERT_EQ(occ.threadblocks_per_sm, 2);
  EXPECT_EQ(target::NumThreadblockBatches(spec, occ, 216), 1);
  EXPECT_EQ(target::NumThreadblockBatches(spec, occ, 217), 2);
}

// ---- Pipeline stage expansion raises shared-memory footprint ----

TEST(ResourcesTest, StageCountsInflateFootprints) {
  GemmOp op = MakeMatmul("mm", 2048, 2048, 2048);
  target::ThreadblockResources one = schedule::ComputeResources(op, BigConfig(1, 1));
  target::ThreadblockResources four =
      schedule::ComputeResources(op, BigConfig(4, 2));
  EXPECT_EQ(four.smem_bytes, 4 * one.smem_bytes);
  EXPECT_GT(four.reg_bytes, one.reg_bytes);
}

// ---- Trace building ----

TEST(TraceTest, EventAccounting) {
  target::GpuSpec spec = target::AmpereSpec();
  GemmOp op = MakeMatmul("mm", 256, 256, 256);
  sim::CompiledKernel compiled =
      sim::CompileKernel(op, BigConfig(3, 2), spec);
  sim::ThreadblockTrace trace =
      sim::BuildTrace(compiled.transformed.stmt, compiled.kernel.num_warps);

  ASSERT_EQ(trace.num_warps, 4);
  ASSERT_EQ(trace.warps.size(), 4u);
  // All warps run the same program: identical event counts.
  for (const sim::WarpTrace& warp : trace.warps) {
    EXPECT_EQ(warp.events.size(), trace.warps[0].events.size());
  }

  // ko extent = 256/32 = 8; smem async copies: (stages-1=2 prologue + 8 in
  // loop) x 2 tensors; reg copies: ki=2 per ko x 2 tensors (+ guarded
  // prologue at ko==0) -- count total async copies per warp.
  int64_t async_copies = 0, mmas = 0, barriers = 0;
  for (const sim::TraceEvent& e : trace.warps[0].events) {
    async_copies += e.kind == sim::EventKind::kCopyAsync;
    mmas += e.kind == sim::EventKind::kMma;
    barriers += e.kind == sim::EventKind::kBarrier;
  }
  // smem: (2 + 8) x 2 = 20; reg: (1 prologue + 8*2 loop) x 2 = 34.
  EXPECT_EQ(async_copies, 54);
  // One MMA per ki iteration: 8 ko x 2 ki = 16.
  EXPECT_EQ(mmas, 16);
  // Pipeline primitives subsumed all barriers.
  EXPECT_EQ(barriers, 0);
}

TEST(TraceTest, CooperativeCopiesSplitBytesAcrossWarps) {
  target::GpuSpec spec = target::AmpereSpec();
  GemmOp op = MakeMatmul("mm", 256, 256, 256);
  sim::CompiledKernel compiled = sim::CompileKernel(op, BigConfig(1, 1), spec);
  sim::ThreadblockTrace trace =
      sim::BuildTrace(compiled.transformed.stmt, compiled.kernel.num_warps);
  // The A tile is 128x32 fp16 = 8KB, split across 4 warps = 2KB each.
  for (const sim::TraceEvent& e : trace.warps[0].events) {
    if (e.kind == sim::EventKind::kCopySync &&
        e.src_scope == ir::MemScope::kGlobal) {
      EXPECT_EQ(e.bytes, 128 * 32 * 2 / 4);
      return;
    }
  }
  FAIL() << "no synchronous global->shared copy found in baseline trace";
}

// ---- End-to-end timing properties ----

TEST(SimTest, PipeliningImprovesLargeTiledGemm) {
  target::GpuSpec spec = target::AmpereSpec();
  GemmOp op = MakeMatmul("mm", 2048, 2048, 2048);
  double base = sim::CompileAndSimulate(op, BigConfig(1, 1), spec).cycles;
  double staged = sim::CompileAndSimulate(op, BigConfig(4, 1), spec).cycles;
  double multi = sim::CompileAndSimulate(op, BigConfig(4, 2), spec).cycles;
  EXPECT_LT(staged, base);
  EXPECT_LE(multi, staged * 1.02);  // multi-level at least comparable
  EXPECT_LT(multi, base);
}

TEST(SimTest, DeeperPipelineHelpsUntilOccupancyBites) {
  // Monotone gains from 1->2->3 stages on a latency-bound problem; at some
  // depth the shared-memory cost reduces occupancy and gains flatten.
  target::GpuSpec spec = target::AmpereSpec();
  GemmOp op = MakeMatmul("mm", 1024, 64, 2048);
  ScheduleConfig config;
  config.tile = {.tb_m = 128, .tb_n = 64, .tb_k = 32,
                 .warp_m = 32, .warp_n = 32, .warp_k = 16};
  double prev = sim::CompileAndSimulate(op, config, spec).cycles;
  config.smem_stages = 2;
  double two = sim::CompileAndSimulate(op, config, spec).cycles;
  config.smem_stages = 3;
  double three = sim::CompileAndSimulate(op, config, spec).cycles;
  EXPECT_LT(two, prev);
  EXPECT_LT(three, two);
}

TEST(SimTest, BlockingCopiesNeutralizeDoubleBuffering) {
  // TVM-DB: double buffering without cp.async brings little gain (paper
  // Fig. 10's TVM DB bar).
  target::GpuSpec spec = target::AmpereSpec();
  GemmOp op = MakeMatmul("mm", 2048, 2048, 2048);
  ScheduleConfig db = BigConfig(2, 1);
  db.async_copies = false;
  double base = sim::CompileAndSimulate(op, BigConfig(1, 1), spec).cycles;
  double blocking_db = sim::CompileAndSimulate(op, db, spec).cycles;
  double async_db = sim::CompileAndSimulate(op, BigConfig(2, 1), spec).cycles;
  EXPECT_LT(async_db, blocking_db);
  // DB without async hardware moves little in either direction (it can
  // even lose slightly: doubled footprint costs occupancy).
  EXPECT_GT(blocking_db, base * 0.8);
  EXPECT_LT(blocking_db, base * 1.25);
}

TEST(SimTest, SwizzlingMatters) {
  target::GpuSpec spec = target::AmpereSpec();
  GemmOp op = MakeMatmul("mm", 1024, 1024, 1024);
  ScheduleConfig with = BigConfig(3, 2);
  ScheduleConfig without = with;
  without.swizzle = false;
  double swizzled = sim::CompileAndSimulate(op, with, spec).cycles;
  double conflicted = sim::CompileAndSimulate(op, without, spec).cycles;
  EXPECT_LT(swizzled, conflicted);
}

TEST(SimTest, InnerFusionBeatsRecursivePipeline) {
  // Fig. 3d vs 3c: the holistic pipeline avoids per-iteration drain.
  target::GpuSpec spec = target::AmpereSpec();
  GemmOp op = MakeMatmul("mm", 1024, 64, 2048);
  ScheduleConfig fused;
  fused.tile = {.tb_m = 128, .tb_n = 64, .tb_k = 32,
                .warp_m = 32, .warp_n = 32, .warp_k = 16};
  fused.smem_stages = 4;
  fused.reg_stages = 2;
  ScheduleConfig recursive = fused;
  recursive.inner_fusion = false;
  double t_fused = sim::CompileAndSimulate(op, fused, spec).cycles;
  double t_recursive = sim::CompileAndSimulate(op, recursive, spec).cycles;
  EXPECT_LE(t_fused, t_recursive);
}

TEST(SimTest, InfeasibleConfigReported) {
  target::GpuSpec spec = target::AmpereSpec();
  GemmOp op = MakeMatmul("mm", 2048, 2048, 2048);
  ScheduleConfig config = BigConfig(8, 2);
  config.tile.tb_m = 256;
  config.tile.tb_n = 256;  // 8-stage 256x256 tiles blow shared memory
  sim::KernelTiming timing = sim::CompileAndSimulate(op, config, spec);
  EXPECT_FALSE(timing.feasible);
  EXPECT_NE(timing.reason.find("not fit"), std::string::npos) << timing.reason;
}

// The feasibility verdict comes before the compiler: an occupancy-
// infeasible config is rejected with the verdict's reason, and no kernel
// is lowered or pipelined for it.
TEST(SimTest, InfeasibleConfigRejectedBeforeCompiling) {
  target::GpuSpec spec = target::AmpereSpec();
  GemmOp op = MakeMatmul("mm", 512, 512, 512);
  ScheduleConfig config = BigConfig(4, 2);
  config.tile.tb_m = 256;
  config.tile.tb_n = 256;
  config.tile.tb_k = 64;  // 4-stage 256x256x64 tiles want 256 KB shared
  auto kernel_compiles = [] {
    std::vector<obs::TraceSpan> spans = obs::CollectTraceSpans();
    return std::count_if(spans.begin(), spans.end(), [](const auto& span) {
      return std::string(span.name) == "compile-kernel";
    });
  };
  bool was_enabled = obs::TraceEnabled();
  obs::SetTraceEnabled(true);
  obs::ClearTrace();
  sim::SimProgram program = sim::CompileSimProgram(op, config, spec);
  EXPECT_EQ(kernel_compiles(), 0);
  // Control: a config that fits does compile.
  EXPECT_TRUE(sim::CompileSimProgram(op, BigConfig(2, 1), spec).feasible);
  EXPECT_EQ(kernel_compiles(), 1);
  obs::SetTraceEnabled(was_enabled);
  obs::ClearTrace();

  EXPECT_FALSE(program.feasible);
  EXPECT_EQ(program.reason.rfind("threadblock does not fit: ", 0), 0u)
      << program.reason;
  EXPECT_EQ(program.reason,
            schedule::CheckFeasibility(op, config, spec).reason);
}

TEST(SimTest, InvalidScheduleReported) {
  target::GpuSpec spec = target::AmpereSpec();
  GemmOp op = MakeMatmul("mm", 100, 100, 100);  // nothing divides 100
  sim::KernelTiming timing = sim::CompileAndSimulate(op, BigConfig(2, 1), spec);
  EXPECT_FALSE(timing.feasible);
  EXPECT_NE(timing.reason.find("invalid schedule"), std::string::npos);
}

TEST(SimTest, DeterministicAcrossRuns) {
  target::GpuSpec spec = target::AmpereSpec();
  GemmOp op = MakeMatmul("mm", 512, 512, 512);
  double a = sim::CompileAndSimulate(op, BigConfig(3, 2), spec).cycles;
  double b = sim::CompileAndSimulate(op, BigConfig(3, 2), spec).cycles;
  EXPECT_EQ(a, b);
}

TEST(SimTest, ThroughputBelowPeak) {
  target::GpuSpec spec = target::AmpereSpec();
  GemmOp op = MakeMatmul("mm", 4096, 4096, 4096);
  sim::KernelTiming timing = sim::CompileAndSimulate(op, BigConfig(4, 2), spec);
  ASSERT_TRUE(timing.feasible);
  double peak_tflops =
      spec.tc_flops_per_sm_per_cycle * spec.num_sms * spec.clock_ghz / 1e3;
  EXPECT_LT(timing.tflops, peak_tflops);
  EXPECT_GT(timing.tflops, 0.3 * peak_tflops);
}

// ---- Traffic analysis ----

TEST(TrafficTest, ReuseReducesDramFractions) {
  target::GpuSpec spec = target::AmpereSpec();
  GemmOp op = MakeMatmul("mm", 2048, 2048, 2048);
  sim::TrafficAnalysis traffic =
      sim::AnalyzeTraffic(op, BigConfig(3, 2), spec, 2);
  EXPECT_LT(traffic.a_dram_fraction, 0.5);
  EXPECT_LT(traffic.b_dram_fraction, 0.5);
  EXPECT_GT(traffic.a_dram_fraction, 0.0);
}

TEST(TrafficTest, TinyGridHasNoReuse) {
  target::GpuSpec spec = target::AmpereSpec();
  GemmOp op = MakeMatmul("mm", 128, 128, 4096);  // a single threadblock
  sim::TrafficAnalysis traffic =
      sim::AnalyzeTraffic(op, BigConfig(2, 1), spec, 2);
  EXPECT_DOUBLE_EQ(traffic.a_dram_fraction, 1.0);
  EXPECT_DOUBLE_EQ(traffic.b_dram_fraction, 1.0);
}

TEST(TrafficTest, RasterizationBalancesReuse) {
  // CUTLASS-style CTA swizzling trades A-reuse for B-reuse and shrinks the
  // combined working set on square grids.
  target::GpuSpec spec = target::AmpereSpec();
  GemmOp op = MakeMatmul("mm", 8192, 8192, 4096);
  ScheduleConfig row_major = BigConfig(3, 2);
  ScheduleConfig swizzled = row_major;
  swizzled.raster_block = 8;
  sim::TrafficAnalysis plain = sim::AnalyzeTraffic(op, row_major, spec, 2);
  sim::TrafficAnalysis raster = sim::AnalyzeTraffic(op, swizzled, spec, 2);
  // The balanced window shrinks the working set enough to fit the LLC, so
  // both tensors' DRAM fractions improve despite A's raw reuse dropping.
  EXPECT_LT(raster.working_set_bytes, plain.working_set_bytes);
  EXPECT_LT(raster.b_dram_fraction, plain.b_dram_fraction);
  EXPECT_LT(raster.a_dram_fraction, plain.a_dram_fraction);
}

TEST(TrafficTest, WorkingSetBeyondLlcDegradesHits) {
  target::GpuSpec spec = target::AmpereSpec();
  spec.llc_bytes = 1 * 1024 * 1024;  // tiny LLC
  GemmOp op = MakeMatmul("mm", 4096, 4096, 4096);
  sim::TrafficAnalysis small_cache =
      sim::AnalyzeTraffic(op, BigConfig(3, 2), spec, 2);
  sim::TrafficAnalysis big_cache = sim::AnalyzeTraffic(
      op, BigConfig(3, 2), target::AmpereSpec(), 2);
  EXPECT_GT(small_cache.a_dram_fraction, big_cache.a_dram_fraction);
}

}  // namespace
}  // namespace alcop
