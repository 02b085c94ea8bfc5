// Kernel-level simulation: occupancy, threadblock batching, the LLC
// working-set analysis, and the end-to-end compile+simulate helper that
// the tuner and benchmarks use as their "measurement".
#ifndef ALCOP_SIM_LAUNCH_H_
#define ALCOP_SIM_LAUNCH_H_

#include <string>

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
// once: the feasibility verdict (schedule::CheckFeasibility), the LLC
// working-set analysis, and one walk of the lowered TIR that compiles it
// into a flat micro-op program (sim/compile.h) with every wave-independent
// operand pre-resolved. Phase 2 (ReplaySimProgram) replays that program
// through the event-pool core for each threadblock wave — no IR, no spec,
// no allocation when the caller's ReplayArena is warm. Every compile, tune
// and alcopd request measures through these two calls (via the sim cache);
// the classic single-phase entry points below are thin wrappers over them.
// ---------------------------------------------------------------------------

// A schedule compiled for measurement: the micro-op program plus every
// launch-level constant replay needs, baked so phase 2 never touches the
// kernel IR or the device spec again.
struct SimProgram {
  bool feasible = false;
  std::string reason;  // why infeasible (validation or occupancy)

  MicroOpProgram program;
  int num_warps = 1;

  // Launch geometry.
  int threadblocks_per_sm = 0;
  int num_sms = 0;
  int64_t total_threadblocks = 0;
  int64_t batches = 0;
  // Spec's per-SM warp capacity (for the PMU's achieved-occupancy ratio).
  int max_warps_per_sm = 64;

  // GPU-wide bandwidths; replay divides by the wave's active SM count.
  double llc_bw_bytes_per_cycle = 1.0;
  double dram_bw_bytes_per_cycle = 1.0;
  double dram_write_bw_bytes_per_cycle = 1.0;

  // Launch-level cycle constants (each already includes its own launch
  // overhead where applicable) and the clock for cycle -> time conversion.
  double launch_overhead_cycles = 0.0;
  bool has_ewise = false;
  double ewise_cycles = 0.0;  // standalone elementwise pass
  bool has_splitk = false;
  double splitk_cycles = 0.0;  // split-K reduction pass
  double clock_ghz = 1.0;
  int64_t flops = 0;
};

// Phase 1 from an already compiled kernel.
SimProgram BuildSimProgram(const CompiledKernel& compiled,
                           const target::GpuSpec& spec);

// Phase 1 from scratch: schedule::CheckFeasibility, then CompileKernel +
// BuildSimProgram. Returns an infeasible program (instead of throwing)
// when the config does not validate or does not fit the device, without
// lowering or pipelining the kernel.
SimProgram CompileSimProgram(
    const schedule::GemmOp& op, const schedule::ScheduleConfig& config,
    const target::GpuSpec& spec,
    schedule::InlineOrder inline_order =
        schedule::InlineOrder::kAfterPipelining);

// Phase 2: replays every threadblock wave of the launch through `arena`
// (pooled across calls; see ReplayArena). Bit-identical to the
// interpreter-based InterpretKernel. When `pmu` is non-null, per-kernel
// performance counters are collected during the same replay (sim/pmu.h) —
// the totals scale the replayed waves by the launch's batch structure and
// are bit-identical to InterpretKernel's.
KernelTiming ReplaySimProgram(const SimProgram& program, ReplayArena* arena,
                              KernelPmu* pmu = nullptr);

// Simulates a compiled kernel on the device (phase 1 + phase 2 with a
// thread-local arena).
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

// Reference path: simulates by interpreting the AST-derived event trace
// (sim/trace.h). Kept as the differential-testing oracle for the bytecode
// replay; must produce bit-identical KernelTiming — and, when `pmu` is
// non-null, a bit-identical KernelPmu.
KernelTiming InterpretKernel(const CompiledKernel& compiled,
                             const target::GpuSpec& spec,
                             KernelPmu* pmu = nullptr);

// Records the execution timeline of one steady-state threadblock batch
// for visualization (see timeline.h).
struct BatchTimeline {
  Timeline timeline;
  int num_warps = 1;
  int threadblocks = 1;
};
BatchTimeline CaptureTimeline(const CompiledKernel& compiled,
                              const target::GpuSpec& spec);

// Timeline of one steady-state batch via the replay core (phase 2 only).
BatchTimeline ReplayTimeline(const SimProgram& program, ReplayArena* arena);

// Timeline via the reference interpreter (differential-testing oracle).
BatchTimeline CaptureTimelineInterpreted(const CompiledKernel& compiled,
                                         const target::GpuSpec& spec);

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
