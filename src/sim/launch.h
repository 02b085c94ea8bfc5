// Kernel-level simulation: one launch plan per kernel (occupancy,
// threadblock batching, the LLC working-set analysis, launch-level passes),
// the one wave loop both simulator cores are timed by, and the end-to-end
// compile+simulate helper that the tuner and benchmarks use as their
// "measurement".
#ifndef ALCOP_SIM_LAUNCH_H_
#define ALCOP_SIM_LAUNCH_H_

#include <string>
#include <vector>

#include "pipeline/detect.h"
#include "pipeline/transform.h"
#include "schedule/lower.h"
#include "sim/desim.h"
#include "schedule/schedule.h"
#include "target/gpu_spec.h"
#include "target/occupancy.h"

namespace alcop {
namespace sim {

struct KernelTiming {
  bool feasible = false;
  std::string reason;  // why infeasible
  double cycles = 0.0;
  double microseconds = 0.0;
  double tflops = 0.0;  // achieved throughput
  int threadblocks_per_sm = 0;
  int64_t batches = 0;
  double batch_cycles = 0.0;  // steady-state full-batch makespan
};

// A fully compiled kernel: lowering plus pipeline transformation.
struct CompiledKernel {
  schedule::LoweredKernel kernel;
  pipeline::TransformResult transformed;
  pipeline::DetectionResult detection;
};

// schedule -> lower -> detect/auto-pipeline -> transform.
CompiledKernel CompileKernel(
    const schedule::GemmOp& op, const schedule::ScheduleConfig& config,
    const target::GpuSpec& spec,
    schedule::InlineOrder inline_order =
        schedule::InlineOrder::kAfterPipelining);

// ---------------------------------------------------------------------------
// Two-phase measurement pipeline.
//
// Phase 1 (BuildSimProgram / CompileSimProgram) pays the per-schedule work
// once: the feasibility verdict (schedule::CheckFeasibility), the launch
// plan built from it (occupancy, batches, pipeline groups, the LLC
// working-set analysis, launch-level passes), and one walk of the lowered
// TIR that compiles it into a flat micro-op program (sim/compile.h) with
// every wave-independent operand pre-resolved. Phase 2 (ReplaySimProgram)
// replays that program through the event-pool core for each threadblock
// wave — no IR, no spec, no allocation when the caller's ReplayArena is
// warm. Every compile, tune and alcopd request measures through these two
// calls (via the sim cache); the classic single-phase entry points below
// are thin wrappers over them. Replay only times.
//
// The reference interpreter (InterpretKernel) shares everything but the
// core: the same launch plan, the same threadblock walk (sim/trace.h) and
// the same wave loop, with SimulateBatch over the event trace where replay
// calls ReplayBatch. It alone collects PMU counters and the first wave's
// timeline, both in the run that times the launch, for the profiler and
// the model audit.
// ---------------------------------------------------------------------------

// The pipeline-group table both cores read, indexed by the transform's
// dense group ids.
std::vector<MicroOpGroup> PipelineGroups(
    const pipeline::TransformResult& transformed);

// The launch of one kernel on one device, planned once from its
// feasibility verdict: every launch-level constant the wave loop needs, so
// phase 2 never touches the kernel IR or the device spec again.
struct LaunchPlan {
  bool feasible = false;
  std::string reason;  // why infeasible (validation or occupancy)
  int num_warps = 1;

  // Launch geometry.
  int threadblocks_per_sm = 0;
  int num_sms = 0;
  int64_t total_threadblocks = 0;
  int64_t batches = 0;
  // Spec's per-SM warp capacity (for the PMU's achieved-occupancy ratio).
  int max_warps_per_sm = 64;

  // GPU-wide bandwidths; a wave divides them by its active SM count.
  double llc_bw_bytes_per_cycle = 1.0;
  double dram_bw_bytes_per_cycle = 1.0;
  double dram_write_bw_bytes_per_cycle = 1.0;

  // Launch-level cycle constants (each pass includes its own launch
  // overhead and is 0 when the kernel has no such pass) and the clock for
  // cycle -> time conversion.
  double launch_overhead_cycles = 0.0;
  double ewise_cycles = 0.0;   // standalone elementwise pass
  double splitk_cycles = 0.0;  // split-K reduction pass
  double clock_ghz = 1.0;
  int64_t flops = 0;
};

// A schedule compiled for measurement: its launch plan plus the micro-op
// program.
struct SimProgram : LaunchPlan {
  MicroOpProgram program;
};

// Phase 1 from an already compiled kernel.
SimProgram BuildSimProgram(const CompiledKernel& compiled,
                           const target::GpuSpec& spec);

// Phase 1 from scratch: schedule::CheckFeasibility, then CompileKernel and
// the plan built from that one verdict. Returns an infeasible program
// (instead of throwing) when the config does not validate or does not fit
// the device, without lowering or pipelining the kernel.
SimProgram CompileSimProgram(
    const schedule::GemmOp& op, const schedule::ScheduleConfig& config,
    const target::GpuSpec& spec,
    schedule::InlineOrder inline_order =
        schedule::InlineOrder::kAfterPipelining);

// Phase 2: replays every threadblock wave of the launch through `arena`
// (pooled across calls; see ReplayArena). A null `arena` means the calling
// thread's pooled arena, the one the `sim.arena.bytes` gauge counts; its
// capacity is published after the replay. Bit-identical to the
// interpreter-based InterpretKernel.
KernelTiming ReplaySimProgram(const SimProgram& program,
                              ReplayArena* arena = nullptr);

// Simulates a compiled kernel on the device (phase 1 + phase 2 through the
// thread's pooled arena).
KernelTiming SimulateKernel(const CompiledKernel& compiled,
                            const target::GpuSpec& spec);

// Convenience: compile and simulate in one call. Returns an infeasible
// timing (instead of throwing) when the config does not validate or does
// not fit the device.
KernelTiming CompileAndSimulate(
    const schedule::GemmOp& op, const schedule::ScheduleConfig& config,
    const target::GpuSpec& spec,
    schedule::InlineOrder inline_order =
        schedule::InlineOrder::kAfterPipelining);

// The execution timeline of a launch's first, steady-state threadblock
// wave, for visualization (see timeline.h) and the stall profiler, with
// the wave's geometry.
struct BatchTimeline {
  Timeline timeline;
  int num_warps = 1;
  int threadblocks = 1;  // per active SM
  int active_sms = 1;    // SMs sharing the GPU-wide LLC/DRAM bandwidth
};

// Reference path: simulates by interpreting the AST-derived event trace
// (sim/trace.h) through the same plan and wave loop as replay. The
// differential-testing oracle for the bytecode core, whose KernelTiming it
// must reproduce bit for bit, and the one source of counters and
// timelines, all from the same run. When `pmu` is non-null, per-kernel
// performance counters are collected (sim/pmu.h): the totals scale the
// simulated waves by the launch's batch structure. When `first_wave` is
// non-null, it receives the first wave's spans and geometry. Neither is
// written when the kernel is infeasible.
KernelTiming InterpretKernel(const CompiledKernel& compiled,
                             const target::GpuSpec& spec,
                             KernelPmu* pmu = nullptr,
                             BatchTimeline* first_wave = nullptr);

// LLC working-set analysis of one threadblock-batch: the fraction of each
// input tensor's loads that must come from DRAM (1/reuse, degraded when
// the batch working set exceeds the LLC). Exposed for tests and for the
// analytical model, which shares this estimate.
struct TrafficAnalysis {
  double a_dram_fraction = 1.0;
  double b_dram_fraction = 1.0;
  int64_t batch_threadblocks = 0;
  double working_set_bytes = 0.0;
};
TrafficAnalysis AnalyzeTraffic(const schedule::GemmOp& op,
                               const schedule::ScheduleConfig& config,
                               const target::GpuSpec& spec,
                               int threadblocks_per_sm);

}  // namespace sim
}  // namespace alcop

#endif  // ALCOP_SIM_LAUNCH_H_
