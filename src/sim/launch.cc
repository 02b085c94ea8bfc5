#include "sim/launch.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/detect.h"
#include "sim/desim.h"
#include "sim/trace.h"
#include "support/check.h"

namespace alcop {
namespace sim {

using schedule::GemmOp;
using schedule::LoweredKernel;
using schedule::ScheduleConfig;
using target::WaveShape;

CompiledKernel CompileKernel(const GemmOp& op, const ScheduleConfig& config,
                             const target::GpuSpec& spec,
                             schedule::InlineOrder inline_order) {
  ALCOP_TRACE_SCOPE("compile-kernel", "compiler");
  CompiledKernel compiled;
  schedule::Schedule sched(op, config, inline_order);
  compiled.detection = pipeline::AutoPipeline(sched, spec);
  compiled.kernel = schedule::LowerSchedule(sched);
  compiled.transformed =
      pipeline::ApplyPipelineTransform(compiled.kernel.stmt, config.inner_fusion);
  return compiled;
}

TrafficAnalysis AnalyzeTraffic(const GemmOp& op, const ScheduleConfig& config,
                               const target::GpuSpec& spec,
                               int threadblocks_per_sm) {
  TrafficAnalysis traffic;
  int64_t grid_m = op.m / config.tile.tb_m;
  int64_t grid_n = op.n / config.tile.tb_n;
  int64_t total = op.batch * grid_m * grid_n * config.split_k;
  int64_t k_per_split = op.k / config.split_k;
  int64_t batch_tbs = std::min<int64_t>(
      total, static_cast<int64_t>(threadblocks_per_sm) * spec.num_sms);
  traffic.batch_threadblocks = batch_tbs;

  // Threadblocks are dispatched over (batch, bm, bn); with CTA
  // rasterization (raster_block > 1, CUTLASS's threadblock swizzle) the
  // batch covers a raster_block-row column band instead of full rows,
  // balancing A-panel reuse (threadblocks sharing bm) against B-panel
  // reuse (threadblocks sharing bn) to shrink the LLC working set.
  double row_span = std::clamp<double>(config.raster_block, 1.0,
                                       static_cast<double>(grid_m));
  double col_span = std::clamp<double>(
      static_cast<double>(batch_tbs) / row_span, 1.0,
      static_cast<double>(std::max<int64_t>(grid_n, 1)));
  double reuse_a = std::min<double>(static_cast<double>(batch_tbs), col_span);
  double reuse_b =
      std::clamp<double>(static_cast<double>(batch_tbs) / col_span, 1.0,
                         static_cast<double>(grid_m));

  // Implicit-GEMM convolutions re-read overlapping input patches along the
  // reduction axis; the halo hits in LLC, improving A's effective reuse.
  if (op.family == schedule::OpFamily::kConv3x3) reuse_a *= 3.0;

  double a_panel_bytes = static_cast<double>(config.tile.tb_m) *
                         static_cast<double>(k_per_split) * 2.0;
  double b_panel_bytes = static_cast<double>(config.tile.tb_n) *
                         static_cast<double>(k_per_split) * 2.0;
  double distinct_a = static_cast<double>(batch_tbs) / reuse_a;
  double distinct_b = static_cast<double>(batch_tbs) / std::max(reuse_b, 1.0);
  traffic.working_set_bytes =
      distinct_a * a_panel_bytes + distinct_b * b_panel_bytes;

  traffic.a_dram_fraction = 1.0 / reuse_a;
  traffic.b_dram_fraction = 1.0 / std::max(reuse_b, 1.0);

  // When the batch working set exceeds the LLC, the reuse hits degrade
  // proportionally to how much of the set the cache can hold.
  if (traffic.working_set_bytes > static_cast<double>(spec.llc_bytes)) {
    double keep = static_cast<double>(spec.llc_bytes) / traffic.working_set_bytes;
    traffic.a_dram_fraction = 1.0 - (1.0 - traffic.a_dram_fraction) * keep;
    traffic.b_dram_fraction = 1.0 - (1.0 - traffic.b_dram_fraction) * keep;
  }
  return traffic;
}

std::vector<MicroOpGroup> PipelineGroups(
    const pipeline::TransformResult& transformed) {
  std::vector<MicroOpGroup> groups;
  for (const pipeline::PipelineGroupInfo& group : transformed.groups) {
    ALCOP_CHECK_EQ(group.id, static_cast<int>(groups.size()))
        << "pipeline group ids must be dense";
    groups.push_back({group.stages, group.scope == ir::MemScope::kShared, 0});
  }
  return groups;
}

namespace {

// Plans the launch of a compiled kernel from its feasibility verdict and
// fills the kernel-level inputs both cores read (`options`).
LaunchPlan PlanLaunch(const CompiledKernel& compiled,
                      const target::GpuSpec& spec,
                      schedule::StaticFeasibility verdict,
                      TraceCompileOptions* options) {
  const LoweredKernel& kernel = compiled.kernel;
  LaunchPlan plan;
  if (!verdict.feasible) {
    plan.reason = std::move(verdict.reason);
    return plan;
  }
  const target::Occupancy& occ = verdict.occupancy;

  options->swizzle = kernel.config.swizzle;
  options->blocking_async = !kernel.config.async_copies;
  options->groups = PipelineGroups(compiled.transformed);
  TrafficAnalysis traffic = AnalyzeTraffic(kernel.op, kernel.config, spec,
                                           occ.threadblocks_per_sm);
  options->dram_fraction[kernel.a.get()] = traffic.a_dram_fraction;
  if (kernel.a_ew != nullptr) {
    options->dram_fraction[kernel.a_ew.get()] = traffic.a_dram_fraction;
  }
  options->dram_fraction[kernel.b.get()] = traffic.b_dram_fraction;

  plan.feasible = true;
  plan.num_warps = kernel.num_warps;
  plan.threadblocks_per_sm = occ.threadblocks_per_sm;
  plan.num_sms = spec.num_sms;
  plan.total_threadblocks = kernel.TotalThreadblocks();
  plan.batches =
      target::NumThreadblockBatches(spec, occ, plan.total_threadblocks);
  plan.max_warps_per_sm = spec.max_warps_per_sm;
  plan.llc_bw_bytes_per_cycle = spec.llc_bw_bytes_per_cycle;
  plan.dram_bw_bytes_per_cycle = spec.dram_bw_bytes_per_cycle;
  plan.dram_write_bw_bytes_per_cycle = spec.dram_write_bw_bytes_per_cycle;
  plan.launch_overhead_cycles = spec.launch_overhead_cycles;
  // Standalone elementwise pass (InlineOrder::kNone): a memory-bound
  // kernel reading and writing the full A tensor.
  if (kernel.has_standalone_ewise) {
    double ew_bytes = 2.0 *
                      static_cast<double>(kernel.op.batch * kernel.op.m *
                                          kernel.op.k) *
                      2.0;
    plan.ewise_cycles =
        spec.launch_overhead_cycles + ew_bytes / spec.dram_bw_bytes_per_cycle;
  }
  // Split-K reduction pass: read all fp32 workspace slices, write fp16 C.
  if (kernel.grid_k > 1) {
    double out_elems =
        static_cast<double>(kernel.op.batch * kernel.op.m * kernel.op.n);
    double reduce_bytes =
        out_elems * (4.0 * static_cast<double>(kernel.grid_k) + 2.0);
    plan.splitk_cycles = spec.launch_overhead_cycles +
                         reduce_bytes / spec.dram_bw_bytes_per_cycle;
  }
  plan.clock_ghz = spec.clock_ghz;
  plan.flops = kernel.op.Flops();
  return plan;
}

schedule::StaticFeasibility VerdictOf(const CompiledKernel& compiled,
                                      const target::GpuSpec& spec) {
  return schedule::CheckFeasibility(compiled.kernel.op, compiled.kernel.config,
                                    spec);
}

// The one wave loop both cores time a launch with: the full wave, the
// remainder wave, then the launch-level passes and the µs / TFLOP/s
// conversion. `run_wave(WaveShape)` simulates one wave and returns its
// makespan; it is the only thing the cores differ in. Its first call is
// the launch's first, steady-state wave; a second call, when there is one,
// is the remainder wave after at least one full wave.
template <typename RunWave>
KernelTiming TimeLaunch(const LaunchPlan& plan, RunWave&& run_wave) {
  KernelTiming timing;
  if (!plan.feasible) {
    timing.reason = plan.reason;
    return timing;
  }
  timing.threadblocks_per_sm = plan.threadblocks_per_sm;
  timing.batches = plan.batches;

  int64_t total_tbs = plan.total_threadblocks;
  int64_t per_batch =
      static_cast<int64_t>(plan.threadblocks_per_sm) * plan.num_sms;
  auto wave_of = [&plan](int64_t tbs) {
    return target::WaveOf(plan.threadblocks_per_sm, plan.num_sms, tbs);
  };
  double full_batch = run_wave(wave_of(std::min(total_tbs, per_batch)));
  timing.batch_cycles = full_batch;

  double cycles = plan.launch_overhead_cycles;
  int64_t full_batches = total_tbs / per_batch;
  int64_t remainder = total_tbs - full_batches * per_batch;
  cycles += static_cast<double>(full_batches) * full_batch;
  if (remainder > 0) {
    cycles += full_batches == 0 ? full_batch : run_wave(wave_of(remainder));
  }
  cycles += plan.ewise_cycles;
  cycles += plan.splitk_cycles;

  timing.feasible = true;
  timing.cycles = cycles;
  timing.microseconds = cycles / (plan.clock_ghz * 1e3);
  timing.tflops =
      static_cast<double>(plan.flops) / (timing.microseconds * 1e6);
  return timing;
}

// Replay's per-wave call: the wave's bandwidth slices, then ReplayBatch.
auto ReplayWaves(const SimProgram& program, ReplayArena* arena) {
  return [&program, arena](WaveShape wave) {
    ReplayWave replay;
    replay.threadblocks = wave.threadblocks;
    replay.llc_rate = program.llc_bw_bytes_per_cycle / wave.active_sms;
    replay.dram_rate = program.dram_bw_bytes_per_cycle / wave.active_sms;
    replay.dram_write_rate =
        program.dram_write_bw_bytes_per_cycle / wave.active_sms;
    return ReplayBatch(program.program, replay, arena);
  };
}

SimProgram BuildFromVerdict(const CompiledKernel& compiled,
                            const target::GpuSpec& spec,
                            schedule::StaticFeasibility verdict) {
  ALCOP_TRACE_SCOPE("sim-compile", "sim");
  SimProgram out;
  TraceCompileOptions options;
  static_cast<LaunchPlan&>(out) =
      PlanLaunch(compiled, spec, std::move(verdict), &options);
  if (out.feasible) {
    out.program = CompileTraceProgram(compiled.transformed.stmt,
                                      out.num_warps, spec, options);
  }
  return out;
}

}  // namespace

KernelTiming InterpretKernel(const CompiledKernel& compiled,
                             const target::GpuSpec& spec, KernelPmu* pmu,
                             BatchTimeline* first_wave) {
  ALCOP_TRACE_SCOPE("interpret", "sim");
  DesimParams params;
  const LaunchPlan plan =
      PlanLaunch(compiled, spec, VerdictOf(compiled, spec), &params);
  ThreadblockTrace trace;
  if (plan.feasible) {
    trace = BuildTrace(compiled.transformed.stmt, plan.num_warps);
  }
  // One counter set per simulated wave: the first, then the remainder.
  PmuCounters waves[2];
  int runs = 0;
  KernelTiming timing = TimeLaunch(plan, [&](WaveShape wave) {
    params.threadblocks = wave.threadblocks;
    params.active_sms = wave.active_sms;
    params.pmu = pmu != nullptr ? &waves[runs] : nullptr;
    params.timeline = nullptr;
    if (runs == 0 && first_wave != nullptr) {
      *first_wave = {Timeline(), plan.num_warps, wave.threadblocks,
                     wave.active_sms};
      params.timeline = &first_wave->timeline;
    }
    ++runs;
    return SimulateBatch(trace, spec, params);
  });
  if (pmu != nullptr && timing.feasible) {
    int64_t per_batch =
        static_cast<int64_t>(plan.threadblocks_per_sm) * plan.num_sms;
    ScaleKernelPmu(pmu, waves[0], runs > 1 ? &waves[1] : nullptr,
                   plan.total_threadblocks / per_batch);
    pmu->achieved_occupancy =
        static_cast<double>(plan.threadblocks_per_sm * plan.num_warps) /
        static_cast<double>(plan.max_warps_per_sm);
  }
  return timing;
}

SimProgram BuildSimProgram(const CompiledKernel& compiled,
                           const target::GpuSpec& spec) {
  return BuildFromVerdict(compiled, spec, VerdictOf(compiled, spec));
}

SimProgram CompileSimProgram(const GemmOp& op, const ScheduleConfig& config,
                             const target::GpuSpec& spec,
                             schedule::InlineOrder inline_order) {
  schedule::StaticFeasibility verdict =
      schedule::CheckFeasibility(op, config, spec);
  if (!verdict.feasible) {
    SimProgram out;
    out.reason = std::move(verdict.reason);
    return out;
  }
  return BuildFromVerdict(CompileKernel(op, config, spec, inline_order), spec,
                          std::move(verdict));
}

namespace {

// Published capacity of one thread's pooled arena. The replay thread
// stores into its own atomic after each run; the `sim.arena.bytes`
// callback gauge sums the slots at dump time — so the gauge never reads
// ReplayArena's vectors concurrently with a replay.
struct ArenaGauge {
  std::atomic<int64_t> bytes{0};
};

std::mutex g_arena_gauges_mu;
std::vector<std::shared_ptr<ArenaGauge>>& ArenaGauges() {
  static std::vector<std::shared_ptr<ArenaGauge>> gauges;
  return gauges;
}

// One per simulation thread: the pooled arena plus its published-bytes
// slot. Registration of the callback gauge happens once, on the first
// thread that simulates.
struct ThreadArenaHolder {
  ReplayArena arena;
  std::shared_ptr<ArenaGauge> gauge = std::make_shared<ArenaGauge>();

  ThreadArenaHolder() {
    {
      std::lock_guard<std::mutex> lock(g_arena_gauges_mu);
      ArenaGauges().push_back(gauge);
    }
    static std::once_flag registered;
    std::call_once(registered, [] {
      obs::Registry::Global().RegisterCallback("sim.arena.bytes", [] {
        double total = 0.0;
        std::lock_guard<std::mutex> lock(g_arena_gauges_mu);
        for (const std::shared_ptr<ArenaGauge>& g : ArenaGauges()) {
          total += static_cast<double>(g->bytes.load(std::memory_order_relaxed));
        }
        return total;
      },
      "Bytes currently held by live replay arenas across threads.");
    });
  }
  ~ThreadArenaHolder() {
    // The shared_ptr slot outlives the thread; zero it so exited threads
    // stop contributing resident bytes.
    gauge->bytes.store(0, std::memory_order_relaxed);
  }

  void Update() {
    gauge->bytes.store(static_cast<int64_t>(arena.CapacityBytes()),
                       std::memory_order_relaxed);
  }
};

ThreadArenaHolder& ThreadLocalArena() {
  thread_local ThreadArenaHolder holder;
  return holder;
}

}  // namespace

KernelTiming ReplaySimProgram(const SimProgram& program, ReplayArena* arena) {
  // The hot measurement path: with tracing disabled this scope is one
  // relaxed atomic load (zero-allocation warm replay is gated in
  // tests/obs_test.cc); enabled, it records host wall time but never
  // touches simulated cycles.
  ALCOP_TRACE_SCOPE("replay", "sim");
  if (arena != nullptr) {
    return TimeLaunch(program, ReplayWaves(program, arena));
  }
  // The calling thread's pooled arena, its capacity published afterwards.
  ThreadArenaHolder& holder = ThreadLocalArena();
  KernelTiming timing =
      TimeLaunch(program, ReplayWaves(program, &holder.arena));
  holder.Update();
  return timing;
}

KernelTiming SimulateKernel(const CompiledKernel& compiled,
                            const target::GpuSpec& spec) {
  return ReplaySimProgram(BuildSimProgram(compiled, spec));
}

KernelTiming CompileAndSimulate(const GemmOp& op, const ScheduleConfig& config,
                                const target::GpuSpec& spec,
                                schedule::InlineOrder inline_order) {
  return ReplaySimProgram(CompileSimProgram(op, config, spec, inline_order));
}

}  // namespace sim
}  // namespace alcop
