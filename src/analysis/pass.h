// alcop-lint: the static analysis framework's four checks over one
// program.
//
// LintProgram builds one AnalysisContext over the program and runs four
// checks in a fixed order, each emitting findings into one shared
// verify::DiagnosticEngine under the L0xx code family:
//   L001 error   provable out-of-bounds load/store        (bounds.h)
//   L002 warning bounds not provable (nest too large or
//                non-constant extents)                    (bounds.h)
//   L003 error   read overlaps an in-flight async region  (races.h)
//   L004 warning two in-flight async writes overlap       (races.h)
//   L005 warning unswizzled shared access whose conflict
//                degree exceeds the modeled factor        (bank.h)
//   L006 error   threadblock resources exceed the device  (resources.h)
//
// Diagnostics are sorted by (line, column, code) before they are
// returned, so the output is stable regardless of check order or
// ALCOP_THREADS. Each check's findings and time are recorded in
// LintResult::pass_stats, one entry per check.
#ifndef ALCOP_ANALYSIS_PASS_H_
#define ALCOP_ANALYSIS_PASS_H_

#include <optional>
#include <string>
#include <vector>

#include "analysis/bank.h"
#include "analysis/context.h"
#include "schedule/lower.h"
#include "verify/diagnostic.h"

namespace alcop {
namespace analysis {

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
  // The region-race walk stopped at verify::kMaxSteps.
  bool reached_step_limit = false;

  bool HasErrors() const;
  // No findings at all, over a race walk that finished.
  bool Clean() const { return diagnostics.empty() && !reached_step_limit; }
  // True if an L001 (provable out-of-bounds) error is present; the
  // bounds fuzz differential compares this verdict against "the
  // executor's dynamic region check throws".
  bool HasBoundsError() const;
  std::string Render() const;
};

// Runs the bounds, region-race, bank-conflict and resource checks, in
// that order, over a fresh context for `program`.
LintResult LintProgram(const ir::Stmt& program,
                       const LintOptions& options = {});

}  // namespace analysis
}  // namespace alcop

#endif  // ALCOP_ANALYSIS_PASS_H_
