// Stall attribution — "Nsight for the software GPU". Third pillar of the
// observability layer: turns a simulated batch timeline (sim/timeline.h)
// into a kernel report a perf engineer can act on:
//
//   - per-warp cycle breakdown: compute / copy-issue / sync-stall /
//     barrier / exposed (blocking) copy / fill / store / idle, summing
//     exactly to the batch makespan for every warp (gated in tests);
//   - pipe utilizations (tensor-core and memory pipes, as the fraction
//     of the makespan each pipe's span union covers);
//   - pipeline fill/drain fractions (time before the first and after
//     the last tensor-core op — the warm-up/drain the analytical model
//     smooths over);
//   - a top-bottleneck verdict, cross-checked against the bottleneck
//     analysis of perfmodel/bottleneck.h.
#ifndef ALCOP_OBS_STALL_H_
#define ALCOP_OBS_STALL_H_

#include <string>
#include <vector>

#include "schedule/schedule.h"
#include "sim/launch.h"
#include "sim/timeline.h"
#include "target/gpu_spec.h"

namespace alcop {
namespace obs {

// Cycles a warp spent in each activity over one batch. `idle` is the
// residual against the makespan, so Total() == makespan by construction
// — and idle >= 0 is an invariant (warp spans never overlap).
struct CycleBreakdown {
  double compute = 0.0;        // tensor-core MMA
  double issue = 0.0;          // async-copy issue cycles
  double sync_stall = 0.0;     // consumer_wait / producer_acquire block
  double barrier = 0.0;        // threadblock barrier block
  double exposed_copy = 0.0;   // blocking (synchronous) copy latency
  double fill = 0.0;           // accumulator fill
  double store = 0.0;          // epilogue store
  double idle = 0.0;           // before start / after finish
  double Total() const {
    return compute + issue + sync_stall + barrier + exposed_copy + fill +
           store + idle;
  }
};

struct WarpProfile {
  int tb = 0;
  int warp = 0;
  CycleBreakdown cycles;
};

// The full kernel report for one steady-state threadblock batch.
struct KernelProfile {
  double makespan = 0.0;  // batch makespan in cycles
  int threadblocks = 0;
  int num_warps = 0;  // warps per threadblock

  std::vector<WarpProfile> warps;  // one row per (tb, warp)
  CycleBreakdown total;            // summed over all warp rows

  // Fraction of the makespan each pipe's busy-span union covers.
  double tensor_pipe_utilization = 0.0;
  double memory_pipe_utilization = 0.0;

  // Warm-up / drain: makespan fraction before the first and after the
  // last tensor-core span (0 when the batch never computes).
  double fill_fraction = 0.0;
  double drain_fraction = 0.0;

  // "compute-bound", "memory-bandwidth-bound", "sync-stall-bound" or
  // "exposed-copy-bound" (TVM-DB-style blocking copies dominate).
  std::string verdict;

  // Bottleneck-model cross-check (AttachModelVerdict): the model's
  // limiting term, its predicted cycles, and whether the measured
  // verdict agrees with the model about compute- vs memory-boundedness.
  std::string model_limiter;  // "", "compute", "smem", "dram"
  double model_cycles = 0.0;
  bool model_agrees = false;
};

// Computes the report from a captured batch timeline.
KernelProfile ProfileBatch(const sim::BatchTimeline& batch);

// Cross-checks the measured verdict against perfmodel/bottleneck.h.
void AttachModelVerdict(KernelProfile* profile, const schedule::GemmOp& op,
                        const schedule::ScheduleConfig& config,
                        const target::GpuSpec& spec);

// Human-readable table (the `alcop_cli profile` default output).
std::string RenderProfile(const KernelProfile& profile);

// Machine-readable report; includes the kernel timing and the PMU
// counter block (sim/pmu.h) when provided — one profile invocation then
// carries trace, stalls and counters without re-simulating.
std::string ProfileToJson(const KernelProfile& profile,
                          const sim::KernelTiming* timing = nullptr,
                          const sim::KernelPmu* pmu = nullptr);

}  // namespace obs
}  // namespace alcop

#endif  // ALCOP_OBS_STALL_H_
