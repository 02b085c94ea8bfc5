// Performance-counter subsystem (PMU) for the simulated GPU — the
// Nsight/CUPTI-style counter layer under the PR-4 profiler.
//
// Counters are collected *during* a run of the reference interpreter
// (InterpretKernel; the replay core only times) and obey two contracts,
// both gated by tests:
//   - Byte-deterministic: the same kernel and wave produce memcmp-equal
//     PmuCounters on every run, on every thread count. Each stream
//     accumulates into its own PmuCounters row, and the rows merge in
//     fixed stream order (AddScaledPmu with factor 1), so the
//     floating-point sums see the same addends in the same order.
//   - Free for timing: collecting counters never changes the simulated
//     cycles.
//
// Counter semantics (cycles are simulated cycles; "transaction" = one
// copy/store micro-op):
//   tensor_active_cycles   sum of tensor-core service time over warps
//   lds_active_cycles      LDS-pipe service time (shared->register loads)
//   copy_issue_cycles      warp-side copy/store issue time
//   fill_cycles            accumulator-initialization time
//   wait_stall_cycles      consumer_wait stalls (pass-through + parked)
//   acquire_stall_cycles   producer_acquire park time
//   barrier_stall_cycles   threadblock-barrier rendezvous waits
//   exposed_copy_cycles    blocking-copy time on the warp's critical path
//   llc_read_bytes         global-load bytes served by the LLC
//   dram_read_bytes        DRAM share of global loads (working-set model)
//   lds_read_bytes         shared->register bytes
//   dram_write_bytes       epilogue store bytes
//   cp_async_bytes         bytes issued through asynchronous copies
//   flops                  tensor-core FLOPs retired
//   *_transactions         micro-op counts per pipe
//   barrier_arrivals       per-warp barrier arrivals
//   wait_parks             consumer_waits whose data was not ready on
//                          arrival (stalled beyond the sync overhead).
//                          NOT physical parks: whether a wait parks or
//                          passes through depends on scheduling order
//                          (the eager replay core parks where the strict
//                          interpreter passes through).
//   acquire_parks          producer_acquires that parked their warp (a
//                          physical-park count: acquire park decisions
//                          happen at the strict queue turn)
//   inflight_depth[b]      async-copy issues whose per-(warp, group)
//                          outstanding depth was b+1 (last bucket: >= 16)
#ifndef ALCOP_SIM_PMU_H_
#define ALCOP_SIM_PMU_H_

#include <cstdint>
#include <string>

namespace alcop {
namespace sim {

inline constexpr int kPmuDepthBuckets = 16;

// One kernel's (or one wave's) counter set. Plain 8-byte fields only, so
// the struct is memcmp-comparable — the determinism and differential
// tests compare raw bytes.
struct PmuCounters {
  double tensor_active_cycles = 0.0;
  double lds_active_cycles = 0.0;
  double copy_issue_cycles = 0.0;
  double fill_cycles = 0.0;
  double wait_stall_cycles = 0.0;
  double acquire_stall_cycles = 0.0;
  double barrier_stall_cycles = 0.0;
  double exposed_copy_cycles = 0.0;
  double llc_read_bytes = 0.0;
  double dram_read_bytes = 0.0;
  double lds_read_bytes = 0.0;
  double dram_write_bytes = 0.0;
  double cp_async_bytes = 0.0;
  double flops = 0.0;
  int64_t llc_read_transactions = 0;
  int64_t dram_read_transactions = 0;
  int64_t lds_read_transactions = 0;
  int64_t dram_write_transactions = 0;
  int64_t cp_async_transactions = 0;
  int64_t barrier_arrivals = 0;
  int64_t wait_parks = 0;
  int64_t acquire_parks = 0;
  int64_t inflight_depth[kPmuDepthBuckets] = {};
};
// 14 double and 8 int64_t fields, then the histogram.
static_assert(sizeof(PmuCounters) == (22 + kPmuDepthBuckets) * 8,
              "PmuCounters must stay padding-free for memcmp comparison");

// `dst += src * factor` field by field (histogram included). Scales one
// wave's counters to the launch's batch count, and with factor 1 merges
// the interpreter's per-stream rows.
void AddScaledPmu(PmuCounters* dst, const PmuCounters& src, int64_t factor);

// Kernel-level counter report: the whole launch plus the steady-state
// batch the profiler's timeline shows.
struct KernelPmu {
  bool collected = false;
  PmuCounters total;  // all threadblock batches of the launch
  PmuCounters batch;  // one steady-state full batch (per SM)
  // Resident warps / max warps per SM at the chosen occupancy.
  double achieved_occupancy = 0.0;
};

// Scales a full wave's counters (plus the optional remainder wave's) to
// the launch total, mirroring the wave structure of InterpretKernel
// exactly: full_batches full waves plus the remainder; a launch smaller
// than one batch (full_batches == 0, remainder > 0) reuses the full-wave
// result once.
void ScaleKernelPmu(KernelPmu* pmu, const PmuCounters& full_wave,
                    const PmuCounters* remainder_wave, int64_t full_batches);

// Human-readable counter table (alcop_cli profile --counters).
std::string RenderPmu(const KernelPmu& pmu);

// JSON object (no trailing newline) for --json output and the bench
// harnesses.
std::string PmuToJson(const KernelPmu& pmu);

}  // namespace sim
}  // namespace alcop

#endif  // ALCOP_SIM_PMU_H_
