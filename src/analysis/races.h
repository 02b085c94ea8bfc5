// Region-level race detector (codes L003/L004).
//
// The sync verifier (V001-V009) tracks in-flight async data at *slot*
// granularity: one leading-dimension index per copy. That is exact for
// the IR this compiler emits today, where every async copy writes a
// whole stage slot — but warp-specialized schedules split a slot between
// producer warps, and a slot-granular checker cannot see two sub-slot
// writes alias or a consumer touch only the written half. This check
// runs the verifier's walk (verify/sync_walk.h: loops, FIFO, step
// budget) with a box tracker instead: each in-flight commit group
// records the concrete per-dim boxes its async copies wrote, and
//   L003 (error)   a read's box intersects a box that is still
//                  in flight (committed or uncommitted, not yet
//                  promoted by a consumer_wait);
//   L004 (warning) an async write's box intersects a live box of an
//                  *earlier* commit group (region aliasing between two
//                  live groups - the region-level V005).
// FIFO misuse itself (V002-V004) and malformed IR (V009) are the
// verifier's to report; this check emits L-codes only.
#ifndef ALCOP_ANALYSIS_RACES_H_
#define ALCOP_ANALYSIS_RACES_H_

#include "ir/stmt.h"
#include "verify/diagnostic.h"

namespace alcop {
namespace analysis {

// Emits L003/L004 for `program`; returns true if the walk stopped at
// verify::kMaxSteps.
bool CheckRegionRaces(const ir::Stmt& program,
                      verify::DiagnosticEngine& diags);

}  // namespace analysis
}  // namespace alcop

#endif  // ALCOP_ANALYSIS_RACES_H_
