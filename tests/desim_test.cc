// Precise tests of the discrete-event SM simulator on hand-built traces:
// known event sequences must produce exactly predictable makespans, and
// the pipeline primitives must block/overlap as specified. Also covers the
// timeline capture/rendering.
#include <gtest/gtest.h>

#include "sim/desim.h"
#include "sim/launch.h"
#include "sim/timeline.h"
#include "support/check.h"
#include "target/gpu_spec.h"

namespace alcop {
namespace {

using sim::DesimParams;
using sim::EventKind;
using sim::ThreadblockTrace;
using sim::TraceEvent;

// A spec with round numbers so expected cycle counts are exact.
target::GpuSpec UnitSpec() {
  target::GpuSpec spec;
  spec.num_sms = 1;
  spec.tc_flops_per_sm_per_cycle = 400.0;  // 100 per sub-partition
  spec.lds_bytes_per_cycle_per_sm = 100.0;
  spec.llc_bw_bytes_per_cycle = 100.0;
  spec.dram_bw_bytes_per_cycle = 100.0;
  spec.dram_write_bw_bytes_per_cycle = 100.0;
  spec.llc_latency_cycles = 10.0;
  spec.dram_latency_cycles = 50.0;
  spec.smem_latency_cycles = 5.0;
  spec.copy_issue_bytes_per_cycle = 1000.0;
  spec.sync_overhead_cycles = 0.0;
  spec.launch_overhead_cycles = 0.0;
  return spec;
}

TraceEvent Mma(int64_t flops) {
  TraceEvent e;
  e.kind = EventKind::kMma;
  e.flops = flops;
  return e;
}

TraceEvent CopySync(int64_t bytes) {
  TraceEvent e;
  e.kind = EventKind::kCopySync;
  e.bytes = bytes;
  e.src_scope = ir::MemScope::kGlobal;
  e.dst_scope = ir::MemScope::kShared;
  return e;
}

TraceEvent CopyAsync(int64_t bytes, int group) {
  TraceEvent e = CopySync(bytes);
  e.kind = EventKind::kCopyAsync;
  e.group = group;
  return e;
}

TraceEvent SyncEvent(EventKind kind, int group, int ahead = 0) {
  TraceEvent e;
  e.kind = kind;
  e.group = group;
  e.wait_ahead = ahead;
  return e;
}

DesimParams OneTb() {
  DesimParams params;
  params.threadblocks = 1;
  return params;
}

ThreadblockTrace OneWarp(std::vector<TraceEvent> events) {
  ThreadblockTrace trace;
  trace.num_warps = 1;
  trace.warps.push_back({std::move(events)});
  return trace;
}

TEST(DesimTest, SingleMmaTakesFlopsOverPartitionRate) {
  // 400 flops on a 100-flop/cycle sub-partition: exactly 4 cycles.
  double makespan =
      sim::SimulateBatch(OneWarp({Mma(400)}), UnitSpec(), OneTb());
  EXPECT_DOUBLE_EQ(makespan, 4.0);
}

TEST(DesimTest, SyncCopyChargesTransferAndLatencyAtNextUse) {
  // 100B at 100 B/c (+0.1 issue) + DRAM latency 50, consumed by the MMA:
  // the MMA starts after the load lands and takes 1 cycle.
  double makespan = sim::SimulateBatch(OneWarp({CopySync(100), Mma(100)}),
                                       UnitSpec(), OneTb());
  // issue 0.1; transfer serves [0.1, 1.1]; +latency 50 -> 51.1; mma 1.
  EXPECT_NEAR(makespan, 52.1, 1e-9);
}

TEST(DesimTest, BackToBackSyncCopiesOverlapLatency) {
  // Two loads issued back to back share the latency window; only the
  // bandwidth serializes.
  double makespan = sim::SimulateBatch(
      OneWarp({CopySync(100), CopySync(100), Mma(100)}), UnitSpec(),
      OneTb());
  // issues at 0.1 and 0.2; transfers serve [0.1,1.1] and [1.1,2.1]; the
  // latencies overlap -> both ready at 52.1; mma 1.
  EXPECT_NEAR(makespan, 53.1, 1e-9);
}

TEST(DesimTest, AsyncPipelineHidesLoadLatency) {
  // Two-stage pipeline over 4 iterations, compute-bound: after the
  // prologue fill, each iteration costs its compute only.
  std::vector<TraceEvent> events;
  // Prologue: one chunk.
  events.push_back(SyncEvent(EventKind::kAcquire, 0));
  events.push_back(CopyAsync(100, 0));
  events.push_back(SyncEvent(EventKind::kCommit, 0));
  for (int i = 0; i < 4; ++i) {
    events.push_back(SyncEvent(EventKind::kAcquire, 0));
    events.push_back(CopyAsync(100, 0));
    events.push_back(SyncEvent(EventKind::kCommit, 0));
    events.push_back(SyncEvent(EventKind::kWait, 0));
    events.push_back(Mma(40000));  // 400 cycles >> load 51
    events.push_back(SyncEvent(EventKind::kRelease, 0));
  }
  DesimParams params;
  params.threadblocks = 1;
  params.groups = {{2, true}};
  double makespan =
      sim::SimulateBatch(OneWarp(std::move(events)), UnitSpec(), params);
  // First wait: chunk 0 ready at ~51.2; then 4 x 400 compute dominates.
  EXPECT_NEAR(makespan, 51.3 + 4 * 400.0, 1.0);
}

TEST(DesimTest, WithoutPipelineLoadsSerializeWithCompute) {
  // The same work, synchronous: every iteration pays load + compute.
  std::vector<TraceEvent> events;
  for (int i = 0; i < 4; ++i) {
    events.push_back(CopySync(100));
    events.push_back(Mma(40000));
  }
  double makespan = sim::SimulateBatch(OneWarp(std::move(events)), UnitSpec(),
                                       OneTb());
  // Per iteration ~ (51.1 issue+transfer+latency) + 400 compute.
  EXPECT_GT(makespan, 4 * 400.0 + 4 * 50.0);
}

TEST(DesimTest, DeadlockIsDetected) {
  // A wait with no commit ever: the stream parks forever.
  std::vector<TraceEvent> events = {SyncEvent(EventKind::kWait, 0)};
  DesimParams params;
  params.threadblocks = 1;
  params.groups = {{2, true}};
  EXPECT_THROW(sim::SimulateBatch(OneWarp(std::move(events)), UnitSpec(), params),
               CheckError);
}

TEST(DesimTest, BarrierJoinsWarps) {
  // Warp 0 computes 400 cycles then barriers; warp 1 barriers immediately.
  // Both resume at the same time; warp 1 then computes 400 more.
  ThreadblockTrace trace;
  trace.num_warps = 2;
  trace.warps.push_back({{Mma(40000), SyncEvent(EventKind::kBarrier, -1)}});
  trace.warps.push_back({{SyncEvent(EventKind::kBarrier, -1), Mma(40000)}});
  double makespan =
      sim::SimulateBatch(trace, UnitSpec(), OneTb());
  EXPECT_NEAR(makespan, 800.0, 1.0);
}

TEST(DesimTest, TensorCoreSubPartitionsLimitFewWarps) {
  // One warp issuing 2x400 flops takes 8 cycles (one partition); four
  // warps issuing 400 each finish in 4 (all partitions).
  ThreadblockTrace one = OneWarp({Mma(400), Mma(400)});
  EXPECT_DOUBLE_EQ(sim::SimulateBatch(one, UnitSpec(), OneTb()),
                   8.0);
  ThreadblockTrace four;
  four.num_warps = 4;
  for (int w = 0; w < 4; ++w) four.warps.push_back({{Mma(400)}});
  EXPECT_DOUBLE_EQ(sim::SimulateBatch(four, UnitSpec(), OneTb()),
                   4.0);
}

TEST(DesimTest, MoreResidentThreadblocksContendForBandwidth) {
  ThreadblockTrace trace = OneWarp({CopySync(1000), Mma(100)});
  double one = sim::SimulateBatch(trace, UnitSpec(), OneTb());
  DesimParams four_tbs = OneTb();
  four_tbs.threadblocks = 4;
  double four = sim::SimulateBatch(trace, UnitSpec(), four_tbs);
  EXPECT_GT(four, one);  // shared memory pipes serialize the transfers
}

TEST(TimelineTest, CaptureAndRender) {
  target::GpuSpec spec = target::AmpereSpec();
  schedule::GemmOp op = schedule::MakeMatmul("mm", 256, 256, 512);
  schedule::ScheduleConfig config;
  config.tile = {.tb_m = 128, .tb_n = 128, .tb_k = 32,
                 .warp_m = 64, .warp_n = 64, .warp_k = 16};
  config.smem_stages = 3;
  sim::CompiledKernel compiled = sim::CompileKernel(op, config, spec);
  sim::BatchTimeline batch;
  sim::InterpretKernel(compiled, spec, nullptr, &batch);
  EXPECT_FALSE(batch.timeline.spans.empty());
  EXPECT_GT(batch.timeline.makespan, 0.0);

  std::string text = sim::RenderTimeline(batch.timeline, batch.num_warps);
  // One row per warp plus the memory row.
  EXPECT_NE(text.find("tb0 warp0 |"), std::string::npos) << text;
  EXPECT_NE(text.find("tb0 warp3 |"), std::string::npos);
  EXPECT_NE(text.find("tb0 mem   |"), std::string::npos);
  // Compute and transfers must both appear.
  EXPECT_NE(text.find('M'), std::string::npos);
  EXPECT_NE(text.find('T'), std::string::npos);
}

TEST(TimelineTest, BaselineShowsBlockingLoads) {
  target::GpuSpec spec = target::AmpereSpec();
  schedule::GemmOp op = schedule::MakeMatmul("mm", 512, 256, 2048);
  schedule::ScheduleConfig config;
  config.tile = {.tb_m = 128, .tb_n = 128, .tb_k = 32,
                 .warp_m = 64, .warp_n = 64, .warp_k = 16};
  sim::CompiledKernel compiled = sim::CompileKernel(op, config, spec);
  sim::BatchTimeline batch;
  sim::InterpretKernel(compiled, spec, nullptr, &batch);
  std::string text = sim::RenderTimeline(batch.timeline, batch.num_warps);
  EXPECT_NE(text.find('L'), std::string::npos)
      << "synchronous baseline must expose blocking-load spans:\n" << text;
}

}  // namespace
}  // namespace alcop
