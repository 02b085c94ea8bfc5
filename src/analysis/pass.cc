#include "analysis/pass.h"

#include <chrono>
#include <sstream>

#include "analysis/bounds.h"
#include "analysis/races.h"
#include "analysis/resources.h"
#include "verify/sync_walk.h"

namespace alcop {
namespace analysis {

bool LintResult::HasErrors() const {
  for (const verify::Diagnostic& diag : diagnostics) {
    if (diag.severity == verify::Severity::kError) return true;
  }
  return false;
}

bool LintResult::HasBoundsError() const {
  for (const verify::Diagnostic& diag : diagnostics) {
    if (diag.code == "L001") return true;
  }
  return false;
}

std::string LintResult::Render() const {
  std::ostringstream out;
  for (const verify::Diagnostic& diag : diagnostics) {
    out << diag.Render() << "\n";
  }
  if (reached_step_limit) out << verify::kStepLimitNote << "\n";
  return out.str();
}

LintResult LintProgram(const ir::Stmt& program, const LintOptions& options) {
  AnalysisContext ctx(program, options);
  verify::DiagnosticEngine diags;
  LintResult result;
  // Runs one check, recording its findings and wall time under `name`.
  auto timed = [&](const char* name, const auto& check) {
    size_t before = diags.diagnostics().size();
    auto t0 = std::chrono::steady_clock::now();
    check();
    auto t1 = std::chrono::steady_clock::now();
    result.pass_stats.push_back(
        {name, diags.diagnostics().size() - before,
         std::chrono::duration<double, std::milli>(t1 - t0).count()});
  };
  timed("static-bounds", [&] { CheckBounds(ctx, diags); });
  timed("region-races", [&] {
    result.reached_step_limit = CheckRegionRaces(program, diags);
  });
  timed("bank-conflicts",
        [&] { result.bank = CheckBankConflicts(ctx, diags); });
  timed("resource-estimator",
        [&] { result.feasibility = EstimateResources(ctx, diags); });
  result.diagnostics = diags.diagnostics();
  verify::SortDiagnostics(&result.diagnostics);
  return result;
}

}  // namespace analysis
}  // namespace alcop
