// Pass manager of the static analysis framework (alcop-lint).
//
// A lint run builds one AnalysisContext over the program and pushes it
// through an ordered list of AnalysisPass instances, each emitting
// findings into one shared verify::DiagnosticEngine under the L0xx code
// family:
//   L001 error   provable out-of-bounds load/store        (bounds pass)
//   L002 warning bounds not provable (nest too large or
//                non-constant extents)                    (bounds pass)
//   L003 error   read overlaps an in-flight async region  (race pass)
//   L004 warning two in-flight async writes overlap       (race pass)
//   L005 warning unswizzled shared access whose conflict
//                degree exceeds the modeled factor        (bank pass)
//   L006 error   threadblock resources exceed the device  (resource pass)
//
// Diagnostics are sorted by (line, column, code) before they are
// returned, so multi-pass output is stable regardless of pass order or
// ALCOP_THREADS. Per-pass cost is recorded in LintResult::pass_stats.
#ifndef ALCOP_ANALYSIS_PASS_H_
#define ALCOP_ANALYSIS_PASS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/context.h"
#include "verify/diagnostic.h"

namespace alcop {
namespace analysis {

class AnalysisPass {
 public:
  virtual ~AnalysisPass() = default;
  virtual const char* name() const = 0;
  virtual void Run(AnalysisContext& ctx, verify::DiagnosticEngine& diags) = 0;
};

struct PassStats {
  std::string name;
  size_t findings = 0;
  double millis = 0.0;
};

struct LintResult {
  std::vector<verify::Diagnostic> diagnostics;  // sorted (line, col, code)
  std::vector<PassStats> pass_stats;
  std::optional<schedule::StaticFeasibility> feasibility;
  std::optional<BankReport> bank;

  bool HasErrors() const;
  bool Clean() const { return diagnostics.empty(); }
  // True if an L001 (provable out-of-bounds) error is present; the
  // bounds fuzz differential compares this verdict against "the
  // executor's dynamic region check throws".
  bool HasBoundsError() const;
  std::string Render() const;
};

// The four standard client analyses, in their canonical order.
std::vector<std::unique_ptr<AnalysisPass>> MakeDefaultPasses();

// Runs `passes` over a fresh context for `program` and collects the
// sorted diagnostics plus the shared context results.
LintResult RunPasses(const ir::Stmt& program, const LintOptions& options,
                     const std::vector<std::unique_ptr<AnalysisPass>>& passes);

// RunPasses over MakeDefaultPasses().
LintResult LintProgram(const ir::Stmt& program,
                       const LintOptions& options = {});

}  // namespace analysis
}  // namespace alcop

#endif  // ALCOP_ANALYSIS_PASS_H_
