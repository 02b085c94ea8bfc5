// Golden-trace equivalence of the two-phase measurement pipeline: for
// every schedule config of every Fig. 10 operator, the bytecode replay
// (CompileSimProgram + ReplaySimProgram) must reproduce the AST
// interpreter's KernelTiming bit for bit — the property that lets the
// tuner, the cache and the benchmarks swap the interpreter out for the
// compiled path without a tolerance budget. Timelines are compared span
// for span and the traffic report is checked for phase-1 determinism on
// a sampled subset (both are strictly slower to capture than a timing).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "sim/desim.h"
#include "sim/launch.h"
#include "sim/traffic_report.h"
#include "target/gpu_spec.h"
#include "tuner/strategy.h"
#include "workloads/ops.h"

namespace alcop {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Exact comparison, every field. Doubles are compared by bit pattern so a
// reassociated accumulation or a changed operation order fails the test
// even when the values agree to 1e-15.
::testing::AssertionResult SameTiming(const sim::KernelTiming& interp,
                                      const sim::KernelTiming& replay) {
  if (interp.feasible != replay.feasible) {
    return ::testing::AssertionFailure()
           << "feasible " << interp.feasible << " vs " << replay.feasible;
  }
  if (interp.reason != replay.reason) {
    return ::testing::AssertionFailure()
           << "reason '" << interp.reason << "' vs '" << replay.reason << "'";
  }
  if (!BitEqual(interp.cycles, replay.cycles)) {
    return ::testing::AssertionFailure()
           << "cycles " << interp.cycles << " vs " << replay.cycles;
  }
  if (!BitEqual(interp.microseconds, replay.microseconds) ||
      !BitEqual(interp.tflops, replay.tflops) ||
      !BitEqual(interp.batch_cycles, replay.batch_cycles)) {
    return ::testing::AssertionFailure() << "derived metrics differ";
  }
  if (interp.batches != replay.batches ||
      interp.threadblocks_per_sm != replay.threadblocks_per_sm) {
    return ::testing::AssertionFailure() << "launch geometry differs";
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameTimeline(const sim::BatchTimeline& interp,
                                        const sim::BatchTimeline& replay) {
  if (interp.threadblocks != replay.threadblocks ||
      interp.num_warps != replay.num_warps) {
    return ::testing::AssertionFailure() << "batch geometry differs";
  }
  if (!BitEqual(interp.timeline.makespan, replay.timeline.makespan)) {
    return ::testing::AssertionFailure()
           << "makespan " << interp.timeline.makespan << " vs "
           << replay.timeline.makespan;
  }
  if (interp.timeline.spans.size() != replay.timeline.spans.size()) {
    return ::testing::AssertionFailure()
           << "span count " << interp.timeline.spans.size() << " vs "
           << replay.timeline.spans.size();
  }
  for (size_t i = 0; i < interp.timeline.spans.size(); ++i) {
    const sim::TimelineSpan& a = interp.timeline.spans[i];
    const sim::TimelineSpan& b = replay.timeline.spans[i];
    if (a.tb != b.tb || a.warp != b.warp || a.kind != b.kind ||
        !BitEqual(a.start, b.start) || !BitEqual(a.end, b.end)) {
      return ::testing::AssertionFailure() << "span " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

// PMU counter sets are compared as raw bytes: the bit-identity contract
// (sim/pmu.h) says both cores must produce memcmp-equal counters.
::testing::AssertionResult SamePmu(const sim::KernelPmu& interp,
                                   const sim::KernelPmu& replay) {
  if (interp.collected != replay.collected) {
    return ::testing::AssertionFailure()
           << "collected " << interp.collected << " vs " << replay.collected;
  }
  if (std::memcmp(&interp.total, &replay.total, sizeof(sim::PmuCounters)) !=
      0) {
    return ::testing::AssertionFailure() << "total counters differ";
  }
  if (std::memcmp(&interp.batch, &replay.batch, sizeof(sim::PmuCounters)) !=
      0) {
    return ::testing::AssertionFailure() << "batch counters differ";
  }
  if (!BitEqual(interp.achieved_occupancy, replay.achieved_occupancy)) {
    return ::testing::AssertionFailure()
           << "occupancy " << interp.achieved_occupancy << " vs "
           << replay.achieved_occupancy;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameTraffic(const sim::TrafficReport& a,
                                       const sim::TrafficReport& b) {
  if (!BitEqual(a.dram_read_bytes, b.dram_read_bytes) ||
      !BitEqual(a.llc_read_bytes, b.llc_read_bytes) ||
      !BitEqual(a.smem_write_bytes, b.smem_write_bytes) ||
      !BitEqual(a.lds_read_bytes, b.lds_read_bytes) ||
      !BitEqual(a.dram_write_bytes, b.dram_write_bytes) ||
      !BitEqual(a.flops, b.flops)) {
    return ::testing::AssertionFailure() << "traffic bytes differ";
  }
  return ::testing::AssertionSuccess();
}

// The full sweep: every config the tuner would enumerate for every
// Fig. 10 operator, timings compared on all of them (infeasible ones
// included — the replay must agree on the rejection reason too).
TEST(SimReplayGolden, EveryFig10ConfigMatchesInterpreterExactly) {
  const target::GpuSpec spec = target::AmpereSpec();
  sim::ReplayArena arena;

  int configs = 0;
  int feasible = 0;
  int timelines = 0;
  int traffic_samples = 0;
  int failures = 0;

  for (const schedule::GemmOp& op : workloads::BenchmarkOps()) {
    tuner::TuningTask task = tuner::MakeSimulatorTask(op, spec);
    for (const schedule::ScheduleConfig& config : task.space) {
      ++configs;
      sim::CompiledKernel compiled = sim::CompileKernel(op, config, spec);
      sim::KernelPmu interp_pmu;
      sim::KernelTiming interp = sim::InterpretKernel(compiled, spec,
                                                      &interp_pmu);
      sim::SimProgram program = sim::BuildSimProgram(compiled, spec);
      sim::KernelPmu replay_pmu;
      sim::KernelTiming replay =
          sim::ReplaySimProgram(program, &arena, &replay_pmu);

      ::testing::AssertionResult timing_ok = SameTiming(interp, replay);
      if (!timing_ok) {
        if (++failures <= 5) {
          ADD_FAILURE() << op.name << " " << config.ToString() << ": "
                        << timing_ok.message();
        }
        continue;
      }
      ::testing::AssertionResult pmu_ok = SamePmu(interp_pmu, replay_pmu);
      if (!pmu_ok) {
        if (++failures <= 5) {
          ADD_FAILURE() << op.name << " " << config.ToString()
                        << " pmu: " << pmu_ok.message();
        }
        continue;
      }
      if (!interp.feasible) continue;
      ++feasible;

      // Timelines cost an extra instrumented run of both engines; sample.
      if (feasible % 41 == 0) {
        ++timelines;
        sim::BatchTimeline ti = sim::CaptureTimelineInterpreted(compiled, spec);
        sim::BatchTimeline tr = sim::CaptureTimeline(compiled, spec);
        ::testing::AssertionResult timeline_ok = SameTimeline(ti, tr);
        if (!timeline_ok) {
          if (++failures <= 5) {
            ADD_FAILURE() << op.name << " " << config.ToString()
                          << " timeline: " << timeline_ok.message();
          }
        }
      }

      // Phase-1 determinism: the traffic report from an independent
      // recompile must be bit-identical — this is what makes caching the
      // compiled program equivalent to recompiling it per measurement.
      if (feasible % 53 == 0) {
        ++traffic_samples;
        sim::TrafficReport first = sim::AnalyzeKernelTraffic(compiled, spec);
        sim::CompiledKernel again = sim::CompileKernel(op, config, spec);
        sim::TrafficReport second = sim::AnalyzeKernelTraffic(again, spec);
        ::testing::AssertionResult traffic_ok = SameTraffic(first, second);
        if (!traffic_ok) {
          if (++failures <= 5) {
            ADD_FAILURE() << op.name << " " << config.ToString()
                          << " traffic: " << traffic_ok.message();
          }
        }
      }
    }
  }

  EXPECT_EQ(failures, 0);
  // The sweep must actually have exercised the space; these bounds catch a
  // silently shrunken enumeration.
  EXPECT_GT(configs, 10000);
  EXPECT_GT(feasible, 10000);
  EXPECT_GT(timelines, 100);
  EXPECT_GT(traffic_samples, 100);
}

// Warm-arena reuse across wildly different program shapes must not change
// results: replaying A, then B, then A again yields A's timing bit for bit
// (the arena is scratch, not state).
TEST(SimReplayGolden, ArenaReuseAcrossProgramsIsStateless) {
  const target::GpuSpec spec = target::AmpereSpec();
  const std::vector<schedule::GemmOp>& ops = workloads::BenchmarkOps();
  ASSERT_GE(ops.size(), 2u);

  sim::ReplayArena arena;
  std::vector<sim::SimProgram> programs;
  std::vector<sim::KernelTiming> first;
  for (size_t i = 0; i < 4 && i < ops.size(); ++i) {
    tuner::TuningTask task = tuner::MakeSimulatorTask(ops[i], spec);
    for (const schedule::ScheduleConfig& config : task.space) {
      sim::SimProgram program = sim::CompileSimProgram(ops[i], config, spec);
      if (!program.feasible) continue;
      first.push_back(sim::ReplaySimProgram(program, &arena));
      programs.push_back(std::move(program));
      break;
    }
  }
  ASSERT_GE(programs.size(), 2u);

  // Replay in reverse order through the same (now warm) arena.
  for (size_t i = programs.size(); i-- > 0;) {
    sim::KernelTiming again = sim::ReplaySimProgram(programs[i], &arena);
    EXPECT_TRUE(SameTiming(first[i], again)) << "program " << i;
  }
}

// A shared arena must never leak state between programs: strided programs
// of two operators (a mix of instruction streams and wave sizes), each
// first replayed through its own fresh arena, then through one shared
// arena in an adversarial interleaving: forward, backward, and alternating
// ends.
TEST(SkeletonReplay, SharedArenaBitExactUnderInterleaving) {
  const target::GpuSpec spec = target::AmpereSpec();
  std::vector<sim::SimProgram> programs;
  for (const char* name : {"MM_RN50_FC", "BMM_BERT_QK"}) {
    const schedule::GemmOp& op = workloads::FindOp(name);
    tuner::TuningTask task = tuner::MakeSimulatorTask(op, spec);
    size_t taken = 0;
    for (size_t c = 0; c < task.space.size() && taken < 40; c += 8) {
      sim::SimProgram program = sim::CompileSimProgram(op, task.space[c], spec);
      if (!program.feasible) continue;
      programs.push_back(std::move(program));
      ++taken;
    }
  }
  ASSERT_GT(programs.size(), 20u);
  std::vector<sim::KernelTiming> fresh;
  for (const sim::SimProgram& program : programs) {
    sim::ReplayArena own;
    fresh.push_back(sim::ReplaySimProgram(program, &own));
  }
  sim::ReplayArena shared;
  std::vector<size_t> order;
  for (size_t i = 0; i < programs.size(); ++i) order.push_back(i);
  for (size_t i = programs.size(); i > 0; --i) order.push_back(i - 1);
  for (size_t i = 0; i < programs.size(); ++i) {
    order.push_back(i % 2 == 0 ? i / 2 : programs.size() - 1 - i / 2);
  }
  for (size_t idx : order) {
    sim::KernelTiming replay = sim::ReplaySimProgram(programs[idx], &shared);
    EXPECT_TRUE(SameTiming(fresh[idx], replay)) << "program " << idx;
  }
}

}  // namespace
}  // namespace alcop
