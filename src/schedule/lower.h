// Lowering: Schedule -> Tensor-IR.
//
// Produces the paper's "Input IR" (Fig. 7 left): a two-level tiled GEMM
// loop nest with cache-read buffers, plain (synchronous) copies guarded by
// threadblock barriers, and pipeline-hint pragmas on the buffers the
// detection pass marked. The pipeline program transformation
// (src/pipeline/transform) then rewrites this into the pipelined form.
#ifndef ALCOP_SCHEDULE_LOWER_H_
#define ALCOP_SCHEDULE_LOWER_H_

#include <string>

#include "ir/stmt.h"
#include "schedule/schedule.h"
#include "target/gpu_spec.h"
#include "target/occupancy.h"

namespace alcop {
namespace schedule {

// A lowered kernel plus the metadata the simulator, the performance model
// and the tuner need about it.
struct LoweredKernel {
  ir::Stmt stmt;  // full program (blockIdx loops outermost)
  GemmOp op;
  ScheduleConfig config;
  InlineOrder inline_order = InlineOrder::kAfterPipelining;

  // Launch geometry.
  int64_t grid_batch = 1;
  int64_t grid_m = 1;
  int64_t grid_n = 1;
  int64_t grid_k = 1;     // split-K factor
  int num_warps = 1;
  int64_t ko_extent = 1;  // K / (tb_k * split_k)
  int64_t ki_extent = 1;  // tb_k / warp_k

  // True when the elementwise producer of A is materialized by a separate
  // pass (InlineOrder::kNone); its memory traffic is charged separately.
  bool has_standalone_ewise = false;

  // Global tensors, for binding data in the functional executor.
  ir::Buffer a, b, c;
  ir::Buffer a_ew;       // non-null only with a standalone elementwise pass
  ir::Buffer workspace;  // non-null only with split-K (fp32 partial tiles)

  int64_t TotalThreadblocks() const {
    return grid_batch * grid_m * grid_n * grid_k;
  }
};

// Lowers the schedule. Buffers whose StageInfo carries pipeline_stages >= 2
// get a pipeline_stages pragma; everything else lowers to the synchronous
// barrier-guarded form.
LoweredKernel LowerSchedule(const Schedule& schedule);

// Per-threadblock resource request of a config: shared-memory footprint
// (including pipeline stage expansion), register footprint (fragments,
// accumulators and a fixed per-thread overhead) and warp count. Used by
// the occupancy calculator.
target::ThreadblockResources ComputeResources(const GemmOp& op,
                                              const ScheduleConfig& config);

// Whether one threadblock fits the device, and at what occupancy. Filled
// by CheckFeasibility from config arithmetic, and by the L006 resource
// estimator (src/analysis/resources) from the IR of hand-written kernels.
struct StaticFeasibility {
  bool feasible = true;
  // "invalid schedule: ..." or "threadblock does not fit: <limiter>".
  std::string reason;
  target::ThreadblockResources resources;
  target::Occupancy occupancy;
};

// The config-level feasibility verdict: ValidateConfig, then
// ComputeResources and ComputeOccupancy. Pure arithmetic, no IR built.
// The simulator (sim::CompileSimProgram, sim::BuildSimProgram), the
// analytical model and the tuner's model cut all take their verdict and
// reason string from here.
StaticFeasibility CheckFeasibility(const GemmOp& op,
                                   const ScheduleConfig& config,
                                   const target::GpuSpec& spec);

}  // namespace schedule
}  // namespace alcop

#endif  // ALCOP_SCHEDULE_LOWER_H_
