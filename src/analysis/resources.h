// Resource estimator and static feasibility verdict (code L006).
//
// EstimateResources walks the *IR*: shared-memory footprint from
// shared allocations (stage expansion included, since the pipeline
// transformation reallocates the buffers with the stage dimension),
// register footprint from register/accumulator allocations plus the
// fixed per-thread overhead, warp count from the warp loop extents. For
// lowered kernels the estimate reproduces schedule::ComputeResources
// exactly (asserted in tests); for hand-written IR it is the only
// estimate available. It returns the verdict and emits L006 when one
// threadblock does not fit the device.
//
// The config-level verdict (no IR) is schedule::CheckFeasibility; the
// simulator, the analytical model and the tuner take theirs from there.
#ifndef ALCOP_ANALYSIS_RESOURCES_H_
#define ALCOP_ANALYSIS_RESOURCES_H_

#include <cstdint>

#include "analysis/context.h"
#include "schedule/lower.h"
#include "verify/diagnostic.h"

namespace alcop {
namespace analysis {

// The fixed per-thread register overhead schedule::ComputeResources
// charges (32 registers x 32 threads x 4 bytes per warp).
constexpr int64_t kPerWarpOverheadBytes = 32 * 32 * 4;

schedule::StaticFeasibility EstimateResources(
    AnalysisContext& ctx, verify::DiagnosticEngine& diags);

}  // namespace analysis
}  // namespace alcop

#endif  // ALCOP_ANALYSIS_RESOURCES_H_
