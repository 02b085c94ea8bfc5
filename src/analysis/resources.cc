#include "analysis/resources.h"

#include <sstream>
#include <string>

namespace alcop {
namespace analysis {

schedule::StaticFeasibility EstimateResources(
    AnalysisContext& ctx, verify::DiagnosticEngine& diags) {
  schedule::StaticFeasibility verdict;
  target::ThreadblockResources& res = verdict.resources;
  res.warps = static_cast<int>(ctx.NumWarps());
  for (const ir::Buffer& buffer : ctx.allocs()) {
    switch (buffer->scope) {
      case ir::MemScope::kShared:
        res.smem_bytes += buffer->NumBytes();
        break;
      case ir::MemScope::kRegister:
      case ir::MemScope::kAccumulator:
        res.reg_bytes += buffer->NumBytes();
        break;
      default:
        break;
    }
  }
  res.reg_bytes += ctx.NumWarps() * kPerWarpOverheadBytes;
  verdict.occupancy = target::ComputeOccupancy(ctx.options().spec, res);
  if (verdict.occupancy.threadblocks_per_sm == 0) {
    verdict.feasible = false;
    verdict.reason = std::string("threadblock does not fit: ") +
                     target::LimiterName(verdict.occupancy.limiter);
    std::ostringstream msg;
    msg << "threadblock resources exceed the device: " << res.smem_bytes
        << " B shared, " << res.reg_bytes << " B registers, " << res.warps
        << " warps do not fit one SM (limiter: "
        << target::LimiterName(verdict.occupancy.limiter) << ")";
    verify::Diagnostic& diag =
        diags.Emit(verify::Severity::kError, "L006", msg.str());
    diag.notes.push_back(
        "shared/register footprints include the pipeline stage expansion; "
        "reduce smem_stages/reg_stages or the tile size");
  }
  return verdict;
}

}  // namespace analysis
}  // namespace alcop
