#include "sim/trace.h"

namespace alcop {
namespace sim {

ThreadblockTrace BuildTrace(const ir::Stmt& program, int num_warps) {
  ALCOP_CHECK_GT(num_warps, 0);
  ThreadblockTrace trace;
  trace.num_warps = num_warps;
  trace.warps.resize(static_cast<size_t>(num_warps));
  WalkThreadblock(program, num_warps,
                  [&trace](const TraceEvent& event, WarpRange warps) {
                    for (int w = warps.begin; w < warps.end; ++w) {
                      trace.warps[static_cast<size_t>(w)].events.push_back(
                          event);
                    }
                  });
  return trace;
}

}  // namespace sim
}  // namespace alcop
