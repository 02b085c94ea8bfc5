// Tests of the PMU performance-counter subsystem (sim/pmu.h), which the
// reference interpreter fills: determinism across thread counts, timing
// untouched by collection, conservation against the analytic traffic
// report, the wave-to-launch scaling helper, a pinned hash of the
// counters and first-wave spans over a Fig. 10 sample, and the roofline /
// calibration layers built on top.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfmodel/calibration.h"
#include "perfmodel/roofline.h"
#include "schedule/lower.h"
#include "sim/launch.h"
#include "sim/pmu.h"
#include "sim/traffic_report.h"
#include "support/parallel.h"
#include "target/gpu_spec.h"
#include "tuner/space.h"
#include "tuner/strategy.h"
#include "workloads/ops.h"

namespace alcop {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Raw bytes of the counter payload, for cross-run equality assertions.
std::string PmuBytes(const sim::KernelPmu& pmu) {
  std::string bytes;
  bytes.append(reinterpret_cast<const char*>(&pmu.total),
               sizeof(sim::PmuCounters));
  bytes.append(reinterpret_cast<const char*>(&pmu.batch),
               sizeof(sim::PmuCounters));
  bytes.append(reinterpret_cast<const char*>(&pmu.achieved_occupancy),
               sizeof(double));
  return bytes;
}

schedule::ScheduleConfig BigConfig() {
  schedule::ScheduleConfig config;
  config.tile = {.tb_m = 128, .tb_n = 128, .tb_k = 32,
                 .warp_m = 64, .warp_n = 64, .warp_k = 16};
  config.smem_stages = 3;
  config.reg_stages = 2;
  return config;
}

// A small but diverse probe set: a handful of configs from two Fig. 10
// operators (one plain matmul, one batched).
std::vector<std::pair<schedule::GemmOp, schedule::ScheduleConfig>>
ProbeConfigs() {
  target::GpuSpec spec = target::AmpereSpec();
  std::vector<std::pair<schedule::GemmOp, schedule::ScheduleConfig>> probes;
  std::vector<schedule::GemmOp> ops = workloads::BenchmarkOps();
  for (const schedule::GemmOp& op : {ops[0], ops[7]}) {
    tuner::TuningTask task = tuner::MakeSimulatorTask(op, spec);
    for (size_t c = 0; c < task.space.size(); c += task.space.size() / 6 + 1) {
      probes.emplace_back(op, task.space[c]);
    }
  }
  return probes;
}

// The probe's kernel, or nullopt when the config fails the feasibility
// check (such a config is never lowered).
std::optional<sim::CompiledKernel> CompileIfFeasible(
    const schedule::GemmOp& op, const schedule::ScheduleConfig& config,
    const target::GpuSpec& spec) {
  if (!schedule::CheckFeasibility(op, config, spec).feasible) {
    return std::nullopt;
  }
  return sim::CompileKernel(op, config, spec);
}

TEST(PmuTest, CountersAreBitIdenticalAcrossThreadCounts) {
  target::GpuSpec spec = target::AmpereSpec();
  auto probes = ProbeConfigs();
  int feasible = 0;
  auto sweep = [&] {
    return support::ParallelMap(probes.size(), [&](size_t i) {
      std::optional<sim::CompiledKernel> compiled =
          CompileIfFeasible(probes[i].first, probes[i].second, spec);
      if (!compiled.has_value()) return std::string();
      sim::KernelPmu pmu;
      sim::InterpretKernel(*compiled, spec, &pmu);
      EXPECT_TRUE(pmu.collected);
      return PmuBytes(pmu);
    });
  };
  std::vector<std::string> baseline;
  for (int threads : {1, 2, 8}) {
    support::SetGlobalThreads(threads);
    std::vector<std::string> run = sweep();
    if (baseline.empty()) {
      baseline = run;
      for (const std::string& bytes : run) feasible += !bytes.empty();
    } else {
      EXPECT_EQ(baseline, run) << "thread count " << threads;
    }
  }
  support::SetGlobalThreads(support::ThreadsFromEnv());
  EXPECT_GT(feasible, 3);
}

TEST(PmuTest, CountersConserveAgainstTrafficReport) {
  // 2048^3 plain matmul: the traffic report's whole-kernel byte counts
  // must equal the PMU's per-threadblock rates times the launch size, up
  // to the pipeline-prologue overhead the simulated kernel really issues
  // (stages - 1 extra tile loads per pipeline, which the steady-state
  // traffic report does not count).
  target::GpuSpec spec = target::AmpereSpec();
  schedule::GemmOp op = schedule::MakeMatmul("mm", 2048, 2048, 2048);
  schedule::ScheduleConfig config = BigConfig();
  sim::CompiledKernel compiled = sim::CompileKernel(op, config, spec);
  sim::TrafficReport report = sim::AnalyzeKernelTraffic(compiled, spec);

  sim::KernelPmu pmu;
  sim::KernelTiming timing = sim::InterpretKernel(compiled, spec, &pmu);
  ASSERT_TRUE(timing.feasible);
  ASSERT_TRUE(pmu.collected);

  int64_t total = compiled.kernel.TotalThreadblocks();
  int64_t per_batch =
      static_cast<int64_t>(timing.threadblocks_per_sm) * spec.num_sms;
  int64_t wave_total = std::min(total, per_batch);
  // The steady-state batch simulates one SM hosting this many TBs.
  double wave_tbs = static_cast<double>(std::min<int64_t>(
      timing.threadblocks_per_sm,
      (wave_total + spec.num_sms - 1) / spec.num_sms));
  auto kernel_total = [&](double batch_value) {
    return batch_value / wave_tbs * static_cast<double>(total);
  };
  auto near = [](double measured, double expected) {
    EXPECT_NEAR(measured, expected, 1e-6 * expected + 1e-6);
  };
  // 64 outer iterations load (stages - 1) prologue tiles on top; the
  // register pipeline runs 128 inner steps plus its own prologue fetch.
  double outer = static_cast<double>(op.k / config.tile.tb_k);
  double inner = outer * (config.tile.tb_k / config.tile.warp_k);
  double smem_prologue = (outer + config.smem_stages - 1) / outer;
  double reg_prologue = (inner + config.reg_stages - 1) / inner;
  near(kernel_total(pmu.batch.llc_read_bytes),
       report.llc_read_bytes * smem_prologue);
  near(kernel_total(pmu.batch.dram_read_bytes),
       report.dram_read_bytes * smem_prologue);
  near(kernel_total(pmu.batch.lds_read_bytes),
       report.lds_read_bytes * reg_prologue);
  near(kernel_total(pmu.batch.dram_write_bytes), report.dram_write_bytes);
  near(kernel_total(pmu.batch.flops), report.flops);
  // The async-copy pipe carries both pipelined levels for this schedule:
  // global->shared and shared->register.
  near(pmu.batch.cp_async_bytes,
       pmu.batch.llc_read_bytes + pmu.batch.lds_read_bytes);
}

TEST(PmuTest, ScaleKernelPmuMirrorsTheWaveStructure) {
  sim::PmuCounters full;
  full.flops = 100.0;
  full.llc_read_transactions = 7;
  full.inflight_depth[2] = 3;
  sim::PmuCounters rem;
  rem.flops = 40.0;
  rem.llc_read_transactions = 2;
  rem.inflight_depth[2] = 1;

  // full_batches full waves plus a remainder wave.
  sim::KernelPmu pmu;
  sim::ScaleKernelPmu(&pmu, full, &rem, 3);
  EXPECT_TRUE(pmu.collected);
  EXPECT_DOUBLE_EQ(pmu.total.flops, 3 * 100.0 + 40.0);
  EXPECT_EQ(pmu.total.llc_read_transactions, 3 * 7 + 2);
  EXPECT_EQ(pmu.total.inflight_depth[2], 3 * 3 + 1);
  EXPECT_DOUBLE_EQ(pmu.batch.flops, 100.0);

  // A launch smaller than one batch reuses the full-wave result once.
  sim::KernelPmu small;
  sim::ScaleKernelPmu(&small, full, nullptr, 0);
  EXPECT_DOUBLE_EQ(small.total.flops, 100.0);
  EXPECT_EQ(small.total.llc_read_transactions, 7);
}

TEST(PmuTest, RooflineClassifiesAComputeRichKernel) {
  target::GpuSpec spec = target::AmpereSpec();
  schedule::GemmOp op = schedule::MakeMatmul("mm", 2048, 2048, 2048);
  sim::CompiledKernel compiled = sim::CompileKernel(op, BigConfig(), spec);
  sim::KernelPmu pmu;
  sim::KernelTiming timing = sim::InterpretKernel(compiled, spec, &pmu);
  ASSERT_TRUE(timing.feasible);

  perfmodel::RooflinePoint point =
      perfmodel::ClassifyRoofline(pmu, timing.cycles, spec);
  EXPECT_FALSE(point.regime.empty());
  EXPECT_GT(point.ai_dram, point.ai_llc);  // reuse grows up the hierarchy
  EXPECT_GT(point.compute_cycles, 0.0);
  EXPECT_GT(point.attained_flops_per_cycle, 0.0);
  EXPECT_LE(point.roof_flops_per_cycle, point.peak_flops_per_cycle);
  EXPECT_GT(point.efficiency, 0.0);
  // Attained throughput can never beat the measured-demand ceiling by
  // more than launch-overhead slack.
  EXPECT_LT(point.efficiency, 1.5);
}

TEST(PmuTest, CalibrationAuditsEveryTerm) {
  target::GpuSpec spec = target::AmpereSpec();
  schedule::GemmOp op = workloads::FindOp("MM_BERT_QKV");
  schedule::ScheduleConfig config = BigConfig();
  perfmodel::CalibrationResult result =
      perfmodel::CalibrateConfig(op, config, spec);
  ASSERT_TRUE(result.feasible);
  ASSERT_FALSE(result.terms.empty());
  std::vector<std::string> names;
  for (const perfmodel::TermError& term : result.terms) {
    names.push_back(term.name);
    EXPECT_TRUE(std::isfinite(term.rel_error)) << term.name;
    EXPECT_GE(term.rel_error, 0.0) << term.name;
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "cycles"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "t_compute"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "t_smem_load"), names.end());
  EXPECT_GT(result.measured_cycles, 0.0);
  EXPECT_GT(result.predicted_cycles, 0.0);
  EXPECT_FALSE(result.bottleneck_limiter.empty());
  EXPECT_FALSE(result.profile_verdict.empty());
  // The verdict cross-check must at least be self-consistent with the
  // roofline helper.
  EXPECT_EQ(result.roofline_agrees,
            perfmodel::RooflineAgreesWithLimiter(result.roofline,
                                                 result.bottleneck_limiter));
}

// 64-bit FNV-1a over raw bytes.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 1099511628211ull;
    }
  }
  template <typename T>
  void Value(const T& value) {
    Bytes(&value, sizeof(value));
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

// Every 32nd config of the 12 Fig. 10 spaces, interpreted with counters
// and the first wave's timeline: the timing, the counters and every span
// hash to the pinned value. The sample covers the three wave structures
// ScaleKernelPmu distinguishes. No Fig. 10 launch is a whole number of
// full waves on this spec, so one batched matmul of exactly two full
// waves (2 threadblocks per SM x 108 SMs x 2) is added.
TEST(PmuTest, InterpreterCountersAndFirstWaveArePinned) {
  const target::GpuSpec spec = target::AmpereSpec();
  std::vector<std::pair<schedule::GemmOp, schedule::ScheduleConfig>> sample;
  for (const schedule::GemmOp& op : workloads::BenchmarkOps()) {
    const std::vector<schedule::ScheduleConfig> space =
        tuner::EnumerateSpace(op);
    for (size_t c = 0; c < space.size(); c += 32) {
      sample.emplace_back(op, space[c]);
    }
  }
  sample.emplace_back(
      schedule::MakeBatchMatmul("whole_waves", 432, 128, 128, 256),
      BigConfig());

  Fnv1a fnv;
  int feasible = 0;
  int full_only = 0;     // full waves, no remainder
  int full_and_rem = 0;  // full waves plus a remainder wave
  int partial_only = 0;  // one partial wave (full_batches == 0)
  for (const auto& [op, config] : sample) {
    sim::CompiledKernel compiled = sim::CompileKernel(op, config, spec);
    sim::KernelPmu pmu;
    sim::BatchTimeline wave;
    sim::KernelTiming timing =
        sim::InterpretKernel(compiled, spec, &pmu, &wave);
    fnv.Value(static_cast<uint8_t>(timing.feasible));
    fnv.Value(static_cast<uint64_t>(timing.reason.size()));
    fnv.Bytes(timing.reason.data(), timing.reason.size());
    fnv.Value(timing.cycles);
    fnv.Value(timing.microseconds);
    fnv.Value(timing.tflops);
    fnv.Value(timing.threadblocks_per_sm);
    fnv.Value(timing.batches);
    fnv.Value(timing.batch_cycles);
    const std::string counters = PmuBytes(pmu);
    fnv.Bytes(counters.data(), counters.size());
    if (!timing.feasible) continue;
    ++feasible;

    fnv.Value(wave.num_warps);
    fnv.Value(wave.threadblocks);
    fnv.Value(wave.active_sms);
    fnv.Value(wave.timeline.makespan);
    fnv.Value(static_cast<uint64_t>(wave.timeline.spans.size()));
    for (const sim::TimelineSpan& span : wave.timeline.spans) {
      fnv.Value(span.tb);
      fnv.Value(span.warp);
      fnv.Value(static_cast<int32_t>(span.kind));
      fnv.Value(span.start);
      fnv.Value(span.end);
    }

    const int64_t total = compiled.kernel.TotalThreadblocks();
    const int64_t per_batch =
        static_cast<int64_t>(timing.threadblocks_per_sm) * spec.num_sms;
    if (total < per_batch) {
      ++partial_only;
    } else if (total % per_batch == 0) {
      ++full_only;
    } else {
      ++full_and_rem;
    }
  }
  EXPECT_GT(full_only, 0);
  EXPECT_GT(full_and_rem, 0);
  EXPECT_GT(partial_only, 0);
  EXPECT_EQ(sample.size(), 511u);
  EXPECT_EQ(feasible, 496);
  EXPECT_EQ(fnv.hash(), 8656617832585053045u);
}

TEST(PmuTest, CollectionDoesNotPerturbTiming) {
  target::GpuSpec spec = target::AmpereSpec();
  for (const auto& [op, config] : ProbeConfigs()) {
    std::optional<sim::CompiledKernel> compiled =
        CompileIfFeasible(op, config, spec);
    if (!compiled.has_value()) continue;
    sim::KernelPmu pmu;
    sim::KernelTiming with = sim::InterpretKernel(*compiled, spec, &pmu);
    sim::KernelTiming without = sim::InterpretKernel(*compiled, spec);
    EXPECT_TRUE(with.feasible);
    EXPECT_TRUE(BitEqual(with.cycles, without.cycles));
    EXPECT_TRUE(BitEqual(with.batch_cycles, without.batch_cycles));
  }
}

}  // namespace
}  // namespace alcop
