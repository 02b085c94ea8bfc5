#include "target/occupancy.h"

#include <algorithm>

#include "support/check.h"

namespace alcop {
namespace target {

const char* LimiterName(Occupancy::Limiter limiter) {
  switch (limiter) {
    case Occupancy::Limiter::kSharedMemory: return "shared memory";
    case Occupancy::Limiter::kRegisters: return "registers";
    case Occupancy::Limiter::kWarpSlots: return "warp slots";
  }
  return "?";
}

Occupancy ComputeOccupancy(const GpuSpec& spec,
                           const ThreadblockResources& res) {
  Occupancy occ;
  int64_t by_smem = res.smem_bytes > 0 ? spec.smem_bytes_per_sm / res.smem_bytes
                                       : spec.max_warps_per_sm;
  int64_t by_reg = res.reg_bytes > 0 ? spec.regfile_bytes_per_sm / res.reg_bytes
                                     : spec.max_warps_per_sm;
  int64_t by_warps = res.warps > 0 ? spec.max_warps_per_sm / res.warps
                                   : spec.max_warps_per_sm;

  int64_t fit = std::min({by_smem, by_reg, by_warps});
  occ.threadblocks_per_sm = static_cast<int>(fit);
  if (by_smem == fit) {
    occ.limiter = Occupancy::Limiter::kSharedMemory;
  } else if (by_reg == fit) {
    occ.limiter = Occupancy::Limiter::kRegisters;
  } else {
    occ.limiter = Occupancy::Limiter::kWarpSlots;
  }
  return occ;
}

int64_t NumThreadblockBatches(const GpuSpec& spec, const Occupancy& occ,
                              int64_t total_threadblocks) {
  ALCOP_CHECK_GT(occ.threadblocks_per_sm, 0)
      << "threadblock does not fit on the device";
  int64_t per_batch =
      static_cast<int64_t>(occ.threadblocks_per_sm) * spec.num_sms;
  return (total_threadblocks + per_batch - 1) / per_batch;
}

WaveShape WaveOf(int threadblocks_per_sm, int num_sms, int64_t threadblocks) {
  WaveShape wave;
  wave.threadblocks = static_cast<int>(std::min<int64_t>(
      threadblocks_per_sm, (threadblocks + num_sms - 1) / num_sms));
  wave.active_sms = static_cast<int>(std::min<int64_t>(
      num_sms, (threadblocks + wave.threadblocks - 1) / wave.threadblocks));
  return wave;
}

}  // namespace target
}  // namespace alcop
