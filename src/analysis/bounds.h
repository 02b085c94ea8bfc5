// Static bounds checker (codes L001/L002).
//
// Proves every copy/fill/MMA region in-bounds for its buffer, per memory
// scope, or flags a *provable* out-of-bounds access. Three-tier logic,
// cheapest first:
//   1. interval fast path: the offset's interval over the loop-variable
//      ranges fits the extent -> proven in-bounds (sound even when the
//      interval over-approximates, and even ignoring IfThenElse guards:
//      the guarded executions are a subset);
//   2. exact-interval verdict: the interval is exact (attained set known)
//      and the statement is unguarded -> a violated bound is provably
//      reached -> L001;
//   3. enumeration fallback: project the loop nest onto the variables
//      the offset and its guards actually use and enumerate that
//      product, skipping guard-disabled iterations. This matches the
//      executor's dynamic region check (sim/memory.cc) decision for
//      decision, which is what the index-mutation fuzz differential
//      asserts. Projections larger than LintOptions::max_enumeration
//      give up with an L002 warning instead of a verdict.
#ifndef ALCOP_ANALYSIS_BOUNDS_H_
#define ALCOP_ANALYSIS_BOUNDS_H_

#include "analysis/context.h"
#include "verify/diagnostic.h"

namespace alcop {
namespace analysis {

// Emits L001/L002 for every copy/fill/MMA region of ctx.program().
void CheckBounds(AnalysisContext& ctx, verify::DiagnosticEngine& diags);

}  // namespace analysis
}  // namespace alcop

#endif  // ALCOP_ANALYSIS_BOUNDS_H_
