#include "sim/trace.h"

#include "ir/analysis.h"

namespace alcop {
namespace sim {

namespace internal {

LoopControl AnalyzeLoopControl(const ir::ForNode& loop) {
  using namespace alcop::ir;  // NOLINT(build/namespaces) - IR walk
  LoopControl control;
  control.loop = &loop;
  WalkWithLoops(loop.body, [&](const Stmt& s,
                               const std::vector<const ForNode*>& inner) {
    const Expr* e = nullptr;
    if (s->kind == StmtKind::kFor) {
      e = &static_cast<const ForNode*>(s.get())->extent;
    } else if (s->kind == StmtKind::kIfThenElse) {
      e = &static_cast<const IfThenElseNode*>(s.get())->cond;
    }
    if (e == nullptr || !UsesVar(*e, loop.var)) return;
    control.exprs.push_back(e);
    for (const ForNode* enclosing : inner) {
      if (UsesVar(*e, enclosing->var)) control.per_iteration = true;
    }
  });
  return control;
}

}  // namespace internal

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
