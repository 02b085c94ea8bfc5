// Occupancy calculator: how many threadblocks of a given resource
// footprint fit on one SM, and which resource is the binding constraint.
//
// Pipelining inflates the shared-memory footprint by the stage count
// (Sec. III-B, buffer expansion), so deeper pipelines trade latency hiding
// against resident-threadblock parallelism — the central tension the
// analytical model and tuner must capture.
#ifndef ALCOP_TARGET_OCCUPANCY_H_
#define ALCOP_TARGET_OCCUPANCY_H_

#include <cstdint>

#include "target/gpu_spec.h"

namespace alcop {
namespace target {

// Per-threadblock resource request (computed by schedule::ComputeResources).
struct ThreadblockResources {
  int64_t smem_bytes = 0;
  int64_t reg_bytes = 0;
  int warps = 0;
};

struct Occupancy {
  enum class Limiter {
    kSharedMemory,
    kRegisters,
    kWarpSlots,
  };

  // Resident threadblocks per SM; 0 when one threadblock does not fit.
  int threadblocks_per_sm = 0;
  Limiter limiter = Limiter::kSharedMemory;
};

const char* LimiterName(Occupancy::Limiter limiter);

Occupancy ComputeOccupancy(const GpuSpec& spec,
                           const ThreadblockResources& res);

// Number of sequential threadblock batches a grid of `total_threadblocks`
// needs on the whole device (ceil division; >= 1 for a non-empty grid).
int64_t NumThreadblockBatches(const GpuSpec& spec, const Occupancy& occ,
                              int64_t total_threadblocks);

// One threadblock wave: the threadblocks each active SM hosts, and how
// many SMs are active (small waves leave SMs idle, and the active ones
// receive a larger slice of the GPU-wide bandwidth).
struct WaveShape {
  int threadblocks = 1;
  int active_sms = 1;
};

// The wave of `threadblocks` (at most one batch): a small grid spreads
// across the `num_sms` SMs first, and each active SM hosts up to
// `threadblocks_per_sm`. The simulator times every wave with this shape
// and the analytical model prices the full batch's.
WaveShape WaveOf(int threadblocks_per_sm, int num_sms, int64_t threadblocks);

}  // namespace target
}  // namespace alcop

#endif  // ALCOP_TARGET_OCCUPANCY_H_
