// Shared analysis context of one alcop-lint run.
//
// One AnalysisContext wraps one IR program and lazily computes the
// results the lint checks need, so the checks of one run share them
// instead of re-walking the tree:
//   - statement sites: every non-block statement with its enclosing
//     loop nest *and* the IfThenElse guards dominating it (the pipeline
//     transformation guards recursive-mode loads and fused-mode
//     prologues; any analysis that ignores the guards would flag the
//     deliberately clipped tail iterations);
//   - allocations (the resource check) and the warp count;
//   - guard-aware execution counts per site (how many loop-nest
//     iterations really run the statement), used by the bank-conflict
//     analyzer's traffic prediction.
// The region-race check does not use it: it replays the sync FIFO over
// the program itself (verify/sync_walk.h).
#ifndef ALCOP_ANALYSIS_CONTEXT_H_
#define ALCOP_ANALYSIS_CONTEXT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/interval.h"
#include "ir/analysis.h"
#include "ir/stmt.h"
#include "target/gpu_spec.h"

namespace alcop {
namespace analysis {

// Options shared by every check of one lint run.
struct LintOptions {
  target::GpuSpec spec = target::AmpereSpec();
  // Whether the schedule requests the swizzled shared-memory layout;
  // the layout is a property of the schedule (not visible in the tile-
  // granular IR), so the caller threads it through. Swizzled layouts
  // are conflict-free by construction.
  bool swizzle = true;
  // Point budget of the bounds checker's enumeration fallback, per
  // checked offset (projected onto the variables the offset and its
  // guards actually use).
  int64_t max_enumeration = 1 << 20;
};

// An IfThenElse condition dominating a statement. `negated` marks the
// else-branch side.
struct Guard {
  ir::Expr cond;
  bool negated = false;
};

// One non-block statement with its static context.
struct Site {
  ir::Stmt stmt;
  std::vector<const ir::ForNode*> loops;  // outermost first
  std::vector<Guard> guards;              // outermost first
  std::string path;                       // "for ko / copy.async(A_shared)"
};

class AnalysisContext {
 public:
  AnalysisContext(ir::Stmt program, LintOptions options);

  const ir::Stmt& program() const { return program_; }
  const LintOptions& options() const { return options_; }

  const std::vector<Site>& sites();
  const std::vector<ir::Buffer>& allocs();

  // Product of warp-kind loop extents along the deepest nest (the number
  // of warps one threadblock launches). 1 when the IR has no warp loops.
  int64_t NumWarps();

  // Loop-variable ranges of a site's nest. Returns false when a loop
  // extent is not a compile-time constant.
  static bool LoopRanges(const Site& site, std::vector<VarRange>* out);

  // Guard-aware execution count of a site: the number of loop-nest
  // iterations whose guards all hold. -1 when a loop extent is not
  // constant or the guard projection exceeds `max_enumeration`.
  int64_t CountExecutions(const Site& site);

 private:
  ir::Stmt program_;
  LintOptions options_;
  bool sites_ready_ = false;
  std::vector<Site> sites_;
  bool allocs_ready_ = false;
  std::vector<ir::Buffer> allocs_;
  int64_t num_warps_ = -1;
};

}  // namespace analysis
}  // namespace alcop

#endif  // ALCOP_ANALYSIS_CONTEXT_H_
