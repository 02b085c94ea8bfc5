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

namespace {

// Shared setup of a discrete-event run: occupancy, the per-warp trace,
// and the simulation parameters (group metadata, traffic fractions).
struct DesimSetup {
  bool feasible = false;
  std::string reason;
  target::Occupancy occ;
  ThreadblockTrace trace;
  DesimParams params;
};

DesimSetup PrepareDesim(const CompiledKernel& compiled,
                        const target::GpuSpec& spec) {
  const LoweredKernel& kernel = compiled.kernel;
  DesimSetup setup;

  target::ThreadblockResources res =
      schedule::ComputeResources(kernel.op, kernel.config);
  setup.occ = target::ComputeOccupancy(spec, res);
  if (setup.occ.threadblocks_per_sm == 0) {
    setup.reason = std::string("threadblock does not fit: ") +
                   target::LimiterName(setup.occ.limiter);
    return setup;
  }

  // Build the per-warp event trace once; it is identical for every
  // threadblock.
  setup.trace = BuildTrace(compiled.transformed.stmt, kernel.num_warps);

  setup.params.swizzle = kernel.config.swizzle;
  setup.params.blocking_async = !kernel.config.async_copies;
  for (const pipeline::PipelineGroupInfo& group : compiled.transformed.groups) {
    ALCOP_CHECK_EQ(group.id, static_cast<int>(setup.params.groups.size()))
        << "pipeline group ids must be dense";
    setup.params.groups.push_back(
        {group.stages, group.scope == ir::MemScope::kShared});
  }

  TrafficAnalysis traffic = AnalyzeTraffic(kernel.op, kernel.config, spec,
                                           setup.occ.threadblocks_per_sm);
  setup.params.dram_fraction[kernel.a.get()] = traffic.a_dram_fraction;
  if (kernel.a_ew != nullptr) {
    setup.params.dram_fraction[kernel.a_ew.get()] = traffic.a_dram_fraction;
  }
  setup.params.dram_fraction[kernel.b.get()] = traffic.b_dram_fraction;
  setup.feasible = true;
  return setup;
}

}  // namespace

KernelTiming InterpretKernel(const CompiledKernel& compiled,
                             const target::GpuSpec& spec, KernelPmu* pmu) {
  ALCOP_TRACE_SCOPE("interpret", "sim");
  const LoweredKernel& kernel = compiled.kernel;
  KernelTiming timing;

  DesimSetup setup = PrepareDesim(compiled, spec);
  if (!setup.feasible) {
    timing.reason = setup.reason;
    return timing;
  }
  const target::Occupancy& occ = setup.occ;
  const ThreadblockTrace& trace = setup.trace;
  DesimParams& params = setup.params;
  timing.threadblocks_per_sm = occ.threadblocks_per_sm;

  int64_t total_tbs = kernel.TotalThreadblocks();
  timing.batches = target::NumThreadblockBatches(spec, occ, total_tbs);

  // Simulates a wave of `tbs` threadblocks: each active SM hosts up to the
  // occupancy complement; small waves leave SMs idle, and the active SMs
  // then receive a larger slice of the GPU-wide bandwidth.
  auto simulate_wave = [&](int64_t tbs, PmuCounters* wave_pmu) {
    DesimParams wave = params;
    wave.threadblocks = static_cast<int>(std::min<int64_t>(
        occ.threadblocks_per_sm,
        (tbs + spec.num_sms - 1) / spec.num_sms));
    wave.active_sms = static_cast<int>(std::min<int64_t>(
        spec.num_sms, (tbs + wave.threadblocks - 1) / wave.threadblocks));
    wave.pmu = wave_pmu;
    return SimulateBatch(trace, spec, wave);
  };

  int64_t per_batch =
      static_cast<int64_t>(occ.threadblocks_per_sm) * spec.num_sms;
  PmuCounters full_pmu;
  PmuCounters rem_pmu;
  bool have_rem = false;
  double full_batch = simulate_wave(std::min(total_tbs, per_batch),
                                    pmu != nullptr ? &full_pmu : nullptr);
  timing.batch_cycles = full_batch;

  double cycles = spec.launch_overhead_cycles;
  int64_t full_batches = total_tbs / per_batch;
  int64_t remainder = total_tbs - full_batches * per_batch;
  cycles += static_cast<double>(full_batches) * full_batch;
  if (remainder > 0) {
    cycles += full_batches == 0
                  ? full_batch
                  : simulate_wave(remainder,
                                  pmu != nullptr ? &rem_pmu : nullptr);
    have_rem = full_batches > 0;
  }
  if (pmu != nullptr) {
    ScaleKernelPmu(pmu, full_pmu, have_rem ? &rem_pmu : nullptr,
                   full_batches);
    pmu->achieved_occupancy =
        static_cast<double>(occ.threadblocks_per_sm * kernel.num_warps) /
        static_cast<double>(spec.max_warps_per_sm);
  }

  // Standalone elementwise pass (InlineOrder::kNone): a memory-bound
  // kernel reading and writing the full A tensor.
  if (kernel.has_standalone_ewise) {
    double ew_bytes =
        2.0 * static_cast<double>(kernel.op.batch * kernel.op.m * kernel.op.k) * 2.0;
    cycles += spec.launch_overhead_cycles + ew_bytes / spec.dram_bw_bytes_per_cycle;
  }

  // Split-K reduction pass: read all fp32 workspace slices, write fp16 C.
  if (kernel.grid_k > 1) {
    double out_elems =
        static_cast<double>(kernel.op.batch * kernel.op.m * kernel.op.n);
    double reduce_bytes =
        out_elems * (4.0 * static_cast<double>(kernel.grid_k) + 2.0);
    cycles +=
        spec.launch_overhead_cycles + reduce_bytes / spec.dram_bw_bytes_per_cycle;
  }

  timing.feasible = true;
  timing.cycles = cycles;
  timing.microseconds = spec.CyclesToUs(cycles);
  timing.tflops =
      static_cast<double>(kernel.op.Flops()) / (timing.microseconds * 1e6);
  return timing;
}

BatchTimeline CaptureTimelineInterpreted(const CompiledKernel& compiled,
                                         const target::GpuSpec& spec) {
  DesimSetup setup = PrepareDesim(compiled, spec);
  ALCOP_CHECK(setup.feasible) << "cannot capture timeline: " << setup.reason;

  BatchTimeline out;
  out.num_warps = compiled.kernel.num_warps;
  int64_t total = compiled.kernel.TotalThreadblocks();
  out.threadblocks = static_cast<int>(std::min<int64_t>(
      setup.occ.threadblocks_per_sm,
      (total + spec.num_sms - 1) / spec.num_sms));
  setup.params.threadblocks = out.threadblocks;
  setup.params.active_sms = static_cast<int>(std::min<int64_t>(
      spec.num_sms, (total + out.threadblocks - 1) / out.threadblocks));
  setup.params.timeline = &out.timeline;
  SimulateBatch(setup.trace, spec, setup.params);
  return out;
}

SimProgram BuildSimProgram(const CompiledKernel& compiled,
                           const target::GpuSpec& spec) {
  ALCOP_TRACE_SCOPE("sim-compile", "sim");
  const LoweredKernel& kernel = compiled.kernel;
  SimProgram out;

  schedule::StaticFeasibility verdict =
      schedule::CheckFeasibility(kernel.op, kernel.config, spec);
  if (!verdict.feasible) {
    out.reason = std::move(verdict.reason);
    return out;
  }
  const target::Occupancy& occ = verdict.occupancy;

  TraceCompileOptions options;
  options.swizzle = kernel.config.swizzle;
  options.blocking_async = !kernel.config.async_copies;
  for (const pipeline::PipelineGroupInfo& group : compiled.transformed.groups) {
    ALCOP_CHECK_EQ(group.id, static_cast<int>(options.groups.size()))
        << "pipeline group ids must be dense";
    options.groups.push_back(
        {group.stages, group.scope == ir::MemScope::kShared, 0});
  }
  TrafficAnalysis traffic = AnalyzeTraffic(kernel.op, kernel.config, spec,
                                           occ.threadblocks_per_sm);
  options.dram_fraction[kernel.a.get()] = traffic.a_dram_fraction;
  if (kernel.a_ew != nullptr) {
    options.dram_fraction[kernel.a_ew.get()] = traffic.a_dram_fraction;
  }
  options.dram_fraction[kernel.b.get()] = traffic.b_dram_fraction;

  out.program = CompileTraceProgram(compiled.transformed.stmt,
                                    kernel.num_warps, spec, options);
  out.num_warps = kernel.num_warps;
  out.threadblocks_per_sm = occ.threadblocks_per_sm;
  out.num_sms = spec.num_sms;
  out.total_threadblocks = kernel.TotalThreadblocks();
  out.batches =
      target::NumThreadblockBatches(spec, occ, out.total_threadblocks);
  out.max_warps_per_sm = spec.max_warps_per_sm;
  out.llc_bw_bytes_per_cycle = spec.llc_bw_bytes_per_cycle;
  out.dram_bw_bytes_per_cycle = spec.dram_bw_bytes_per_cycle;
  out.dram_write_bw_bytes_per_cycle = spec.dram_write_bw_bytes_per_cycle;
  out.launch_overhead_cycles = spec.launch_overhead_cycles;
  if (kernel.has_standalone_ewise) {
    out.has_ewise = true;
    double ew_bytes =
        2.0 * static_cast<double>(kernel.op.batch * kernel.op.m * kernel.op.k) * 2.0;
    out.ewise_cycles =
        spec.launch_overhead_cycles + ew_bytes / spec.dram_bw_bytes_per_cycle;
  }
  if (kernel.grid_k > 1) {
    out.has_splitk = true;
    double out_elems =
        static_cast<double>(kernel.op.batch * kernel.op.m * kernel.op.n);
    double reduce_bytes =
        out_elems * (4.0 * static_cast<double>(kernel.grid_k) + 2.0);
    out.splitk_cycles =
        spec.launch_overhead_cycles + reduce_bytes / spec.dram_bw_bytes_per_cycle;
  }
  out.clock_ghz = spec.clock_ghz;
  out.flops = kernel.op.Flops();
  out.feasible = true;
  return out;
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
  return BuildSimProgram(CompileKernel(op, config, spec, inline_order), spec);
}

namespace {

// Wave geometry + bandwidth slices for `tbs` threadblocks — the same
// expressions the interpreter path evaluates, for bit-identical results.
ReplayWave WaveFor(const SimProgram& program, int64_t tbs) {
  ReplayWave wave;
  wave.threadblocks = static_cast<int>(std::min<int64_t>(
      program.threadblocks_per_sm,
      (tbs + program.num_sms - 1) / program.num_sms));
  int active_sms = static_cast<int>(std::min<int64_t>(
      program.num_sms, (tbs + wave.threadblocks - 1) / wave.threadblocks));
  wave.llc_rate = program.llc_bw_bytes_per_cycle / active_sms;
  wave.dram_rate = program.dram_bw_bytes_per_cycle / active_sms;
  wave.dram_write_rate = program.dram_write_bw_bytes_per_cycle / active_sms;
  return wave;
}

}  // namespace

KernelTiming ReplaySimProgram(const SimProgram& program, ReplayArena* arena,
                              KernelPmu* pmu) {
  // The hot measurement path: with tracing disabled this scope is one
  // relaxed atomic load (zero-allocation warm replay is gated in
  // tests/obs_test.cc); enabled, it records host wall time but never
  // touches simulated cycles.
  ALCOP_TRACE_SCOPE("replay", "sim");
  KernelTiming timing;
  if (!program.feasible) {
    timing.reason = program.reason;
    return timing;
  }
  timing.threadblocks_per_sm = program.threadblocks_per_sm;
  timing.batches = program.batches;

  int64_t total_tbs = program.total_threadblocks;
  int64_t per_batch = static_cast<int64_t>(program.threadblocks_per_sm) *
                      program.num_sms;
  auto replay_wave = [&](int64_t tbs, PmuCounters* wave_pmu) {
    return ReplayBatch(program.program, WaveFor(program, tbs), arena,
                       nullptr, wave_pmu);
  };
  PmuCounters full_pmu;
  PmuCounters rem_pmu;
  bool have_rem = false;
  double full_batch = replay_wave(std::min(total_tbs, per_batch),
                                  pmu != nullptr ? &full_pmu : nullptr);
  timing.batch_cycles = full_batch;

  double cycles = program.launch_overhead_cycles;
  int64_t full_batches = total_tbs / per_batch;
  int64_t remainder = total_tbs - full_batches * per_batch;
  cycles += static_cast<double>(full_batches) * full_batch;
  if (remainder > 0) {
    cycles += full_batches == 0
                  ? full_batch
                  : replay_wave(remainder,
                                pmu != nullptr ? &rem_pmu : nullptr);
    have_rem = full_batches > 0;
  }
  if (pmu != nullptr) {
    ScaleKernelPmu(pmu, full_pmu, have_rem ? &rem_pmu : nullptr,
                   full_batches);
    pmu->achieved_occupancy =
        static_cast<double>(program.threadblocks_per_sm * program.num_warps) /
        static_cast<double>(program.max_warps_per_sm);
  }
  if (program.has_ewise) cycles += program.ewise_cycles;
  if (program.has_splitk) cycles += program.splitk_cycles;

  timing.feasible = true;
  timing.cycles = cycles;
  timing.microseconds = cycles / (program.clock_ghz * 1e3);
  timing.tflops =
      static_cast<double>(program.flops) / (timing.microseconds * 1e6);
  return timing;
}

BatchTimeline ReplayTimeline(const SimProgram& program, ReplayArena* arena) {
  ALCOP_CHECK(program.feasible)
      << "cannot capture timeline: " << program.reason;
  BatchTimeline out;
  out.num_warps = program.num_warps;
  ReplayWave wave = WaveFor(program, program.total_threadblocks);
  out.threadblocks = wave.threadblocks;
  ReplayBatch(program.program, wave, arena, &out.timeline);
  return out;
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

KernelTiming SimulateKernel(const CompiledKernel& compiled,
                            const target::GpuSpec& spec) {
  SimProgram program = BuildSimProgram(compiled, spec);
  ThreadArenaHolder& holder = ThreadLocalArena();
  KernelTiming timing = ReplaySimProgram(program, &holder.arena);
  holder.Update();
  return timing;
}

KernelTiming CompileAndSimulate(const GemmOp& op, const ScheduleConfig& config,
                                const target::GpuSpec& spec,
                                schedule::InlineOrder inline_order) {
  SimProgram program = CompileSimProgram(op, config, spec, inline_order);
  ThreadArenaHolder& holder = ThreadLocalArena();
  KernelTiming timing = ReplaySimProgram(program, &holder.arena);
  holder.Update();
  return timing;
}

BatchTimeline CaptureTimeline(const CompiledKernel& compiled,
                              const target::GpuSpec& spec) {
  SimProgram program = BuildSimProgram(compiled, spec);
  ThreadArenaHolder& holder = ThreadLocalArena();
  BatchTimeline timeline = ReplayTimeline(program, &holder.arena);
  holder.Update();
  return timeline;
}

}  // namespace sim
}  // namespace alcop
