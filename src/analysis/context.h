// Shared analysis context for the src/analysis pass framework.
//
// One AnalysisContext wraps one IR program and lazily computes the
// results every client analysis needs, so the passes of one lint run
// share them instead of re-walking the tree:
//   - statement sites: every non-block statement with its enclosing
//     loop nest *and* the IfThenElse guards dominating it (the pipeline
//     transformation guards recursive-mode loads and fused-mode
//     prologues; any analysis that ignores the guards would flag the
//     deliberately clipped tail iterations);
//   - def-use chains per buffer (producers/consumers, from ir/analysis);
//   - allocations and pipeline hints;
//   - guard-aware execution counts per site (how many loop-nest
//     iterations really run the statement), used by the bank-conflict
//     analyzer's traffic prediction;
//   - the resource estimator's StaticFeasibility verdict, published on
//     the context so later passes and the caller reuse it.
#ifndef ALCOP_ANALYSIS_CONTEXT_H_
#define ALCOP_ANALYSIS_CONTEXT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/interval.h"
#include "ir/analysis.h"
#include "ir/stmt.h"
#include "schedule/lower.h"
#include "target/gpu_spec.h"

namespace alcop {
namespace analysis {

// Options shared by every pass of one lint run.
struct LintOptions {
  target::GpuSpec spec = target::AmpereSpec();
  // Whether the schedule requests the swizzled shared-memory layout;
  // the layout is a property of the schedule (not visible in the tile-
  // granular IR), so the caller threads it through. Swizzled layouts
  // are conflict-free by construction.
  bool swizzle = true;
  // Step budget of the region-race interpretation (same guard as the
  // sync verifier's).
  int64_t max_steps = 1 << 22;
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

// One shared-memory access analyzed by the bank-conflict pass.
struct BankAccess {
  const ir::StmtNode* site = nullptr;
  std::string buffer;
  std::string path;
  bool is_read = false;   // shared -> register (the LDS pipe)
  int degree = 1;         // geometric conflict degree (1 = conflict-free)
  int64_t bytes = 0;      // bytes per execution of the statement
  int64_t executions = 0; // guard-aware whole-kernel execution count
};

// Whole-program result of the bank-conflict analysis.
struct BankReport {
  std::vector<BankAccess> accesses;
  int max_degree = 1;
  // Whole-kernel shared->register traffic (the simulator's
  // lds_read_bytes), predicted from region sizes and execution counts.
  double predicted_lds_read_bytes = 0.0;
  // The LDS-rate divisor the timing simulator applies to this schedule:
  // 1 when swizzled, GpuSpec::bank_conflict_factor otherwise. The
  // geometric `max_degree` upper-bounds the real penalty; the spec
  // factor is the calibrated average the model charges.
  double sim_divisor = 1.0;
};

class AnalysisContext {
 public:
  AnalysisContext(ir::Stmt program, LintOptions options);

  const ir::Stmt& program() const { return program_; }
  const LintOptions& options() const { return options_; }

  const std::vector<Site>& sites();
  const std::vector<ir::Buffer>& allocs();
  const std::vector<ir::PipelineHint>& hints();
  const std::unordered_map<const ir::BufferNode*,
                           std::vector<ir::ProducerInfo>>&
  producers();
  const std::unordered_map<const ir::BufferNode*,
                           std::vector<ir::ConsumerInfo>>&
  consumers();

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

  // Published by the resource estimator pass; reused by the CLI.
  void SetFeasibility(schedule::StaticFeasibility verdict);
  const std::optional<schedule::StaticFeasibility>& feasibility() const {
    return feasibility_;
  }

  // Published by the bank-conflict pass.
  void SetBankReport(BankReport report);
  const std::optional<BankReport>& bank_report() const { return bank_report_; }

 private:
  ir::Stmt program_;
  LintOptions options_;
  bool sites_ready_ = false;
  std::vector<Site> sites_;
  bool allocs_ready_ = false;
  std::vector<ir::Buffer> allocs_;
  bool hints_ready_ = false;
  std::vector<ir::PipelineHint> hints_;
  bool producers_ready_ = false;
  std::unordered_map<const ir::BufferNode*, std::vector<ir::ProducerInfo>>
      producers_;
  bool consumers_ready_ = false;
  std::unordered_map<const ir::BufferNode*, std::vector<ir::ConsumerInfo>>
      consumers_;
  int64_t num_warps_ = -1;
  std::optional<schedule::StaticFeasibility> feasibility_;
  std::optional<BankReport> bank_report_;
};

// Short printable label of a statement ("copy.async(A_shared)"), shared
// by the passes' diagnostic paths.
std::string SiteLabel(const ir::StmtNode* s);

}  // namespace analysis
}  // namespace alcop

#endif  // ALCOP_ANALYSIS_CONTEXT_H_
