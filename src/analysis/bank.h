// Static shared-memory bank-conflict analyzer (code L005).
//
// Model (the standard NVIDIA one, see the CUDA shared-memory rules):
// shared memory has 32 banks of 4-byte words; a warp access conflicts
// when lanes touch *different* words mapping to the same bank, and the
// conflict degree (max words per bank) multiplies the access latency.
// Lanes touching the same word broadcast conflict-free.
//
// In the tile-granular IR a shared-memory copy moves a whole fragment
// tile; the hardware distributes it so that lanes walk the outermost
// non-unit dimension of the region (fragment rows) simultaneously, i.e.
// concurrent lane addresses are separated by that dimension's row
// stride. A [warp_m, warp_k] fp16 slice of an unswizzled
// [tb_m, tb_k] buffer therefore hits banks in steps of tb_k/2 words -
// the classic strided-column conflict a swizzled (XOR-permuted) layout
// removes. The check:
//   - computes the geometric conflict degree of every shared-memory
//     access (degree 1 when the schedule uses the swizzled layout);
//   - predicts the whole-kernel shared->register traffic from region
//     bytes times guard-aware execution counts (cross-checked against
//     the simulator's lds_read_bytes PMU counter in tests);
//   - reports the LDS-rate divisor the timing simulator will charge
//     (1 swizzled, GpuSpec::bank_conflict_factor unswizzled - the
//     calibrated average, upper-bounded by the geometric degree);
//   - emits L005 when an unswizzled access's geometric degree exceeds
//     the modeled factor, i.e. when the schedule leaves conflicts on
//     the table that the model undercharges.
#ifndef ALCOP_ANALYSIS_BANK_H_
#define ALCOP_ANALYSIS_BANK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/context.h"
#include "ir/buffer.h"
#include "verify/diagnostic.h"

namespace alcop {
namespace analysis {

// One shared-memory access analyzed by the bank-conflict check.
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

// Geometric conflict degree of one region access of a shared buffer,
// assuming the unswizzled row-major layout.
int ConflictDegree(const ir::BufferRegion& region);

// Analyzes every shared-memory copy of ctx.program() and emits L005.
BankReport CheckBankConflicts(AnalysisContext& ctx,
                              verify::DiagnosticEngine& diags);

}  // namespace analysis
}  // namespace alcop

#endif  // ALCOP_ANALYSIS_BANK_H_
