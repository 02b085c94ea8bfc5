// ALCOP's pipeline-aware analytical performance model — Table I of the
// paper.
//
//   T_kernel  = T_threadblk x N_threadblk_batch
//   T_threadblk = T_init + T_main_loop + T_epilogue
//   T_main_loop = PLM(T_smem_load, T_smem_use, N_smem_loop,
//                     N_smem_pipe_stage, N_threadblk_per_SM)
//   T_smem_use  = PLM(T_reg_load, T_compute, N_reg_loop,
//                     N_reg_pipe_stage, N_warp_per_threadblk)
//   PLM(T_load, T_use, N_loop, N_pipe, N_mplx):
//     if T_load <= (N_pipe x N_mplx - 1) x T_use : T_use x N_loop
//     else                                       : (T_load + T_use) x N_loop / N_pipe
//
// The model explicitly captures the constraint-and-trade-off triangle of
// pipelining, tiling, and spatial parallelism: stage counts inflate shared
// memory and register footprints, which lowers occupancy
// (N_threadblk_per_SM), which in turn weakens both multiplexing terms.
#ifndef ALCOP_PERFMODEL_ANALYTICAL_H_
#define ALCOP_PERFMODEL_ANALYTICAL_H_

#include <string>

#include "schedule/schedule.h"
#include "target/gpu_spec.h"

namespace alcop {
namespace perfmodel {

// The pipeline latency model in isolation (exposed for unit tests).
double PipelineLatencyModel(double t_load, double t_use, int64_t n_loop,
                            int64_t n_pipe, int64_t n_mplx);

struct AnalyticalBreakdown {
  bool feasible = false;
  std::string reason;
  double cycles = 0.0;       // whole kernel
  double t_init = 0.0;       // per threadblock
  double t_main_loop = 0.0;  // per threadblock
  double t_epilogue = 0.0;   // per threadblock
  double t_smem_load = 0.0;  // one outer-loop load
  double t_smem_use = 0.0;   // one outer-loop use (the inner pipeline)
  double t_compute = 0.0;    // one inner-loop tensor-core step
  double t_reg_load = 0.0;   // one inner-loop register load
  // Steady-state initiation interval of one outer-loop iteration (the
  // binding per-SM resource bound plus fitted overhead); t_main_loop is
  // n_smem_loop of these. See the DELTA note in analytical.cc.
  double t_iter = 0.0;
  int threadblocks_per_sm = 0;
  // Threadblocks actually resident on one SM during a full batch:
  // min(threadblocks_per_sm, ceil(grid / num_sms)). The per-SM
  // multiplexing terms use this, not the occupancy bound.
  int resident_tbs = 0;
  int64_t batches = 0;
};

// Full Table-I evaluation for one schedule of one operator.
AnalyticalBreakdown AnalyticalModel(const schedule::GemmOp& op,
                                    const schedule::ScheduleConfig& config,
                                    const target::GpuSpec& spec);

// Predicted kernel cycles; +inf when the schedule is invalid/unfittable
// (so model-ranked orderings push such schedules last).
double PredictCycles(const schedule::GemmOp& op,
                     const schedule::ScheduleConfig& config,
                     const target::GpuSpec& spec);

}  // namespace perfmodel
}  // namespace alcop

#endif  // ALCOP_PERFMODEL_ANALYTICAL_H_
