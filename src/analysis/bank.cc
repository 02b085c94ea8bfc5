#include "analysis/bank.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace alcop {
namespace analysis {

using namespace alcop::ir;  // NOLINT(google-build-using-namespace)

namespace {
constexpr int kNumBanks = 32;
constexpr int kWarpLanes = 32;
constexpr int64_t kBankWordBytes = 4;
}  // namespace

int ConflictDegree(const BufferRegion& region) {
  const BufferNode* buffer = region.buffer.get();
  // Lanes partition the outermost non-unit dimension of the region; the
  // remaining inner dims are streamed per lane.
  std::vector<int64_t> strides = buffer->Strides();
  size_t lane_dim = region.sizes.size();
  for (size_t d = 0; d < region.sizes.size(); ++d) {
    if (region.sizes[d] > 1) {
      lane_dim = d;
      break;
    }
  }
  if (lane_dim == region.sizes.size()) return 1;  // single-element region
  int64_t lane_stride_bytes = strides[lane_dim] * buffer->elem_bytes;
  int64_t lanes = std::min<int64_t>(kWarpLanes, region.sizes[lane_dim]);
  std::map<int64_t, std::set<int64_t>> words_per_bank;
  for (int64_t l = 0; l < lanes; ++l) {
    int64_t word = (l * lane_stride_bytes) / kBankWordBytes;
    words_per_bank[word % kNumBanks].insert(word);
  }
  size_t degree = 1;
  for (const auto& [bank, words] : words_per_bank) {
    degree = std::max(degree, words.size());
  }
  return static_cast<int>(degree);
}

BankReport CheckBankConflicts(AnalysisContext& ctx,
                              verify::DiagnosticEngine& diags) {
  const LintOptions& options = ctx.options();
  BankReport report;
  report.sim_divisor =
      options.swizzle ? 1.0 : options.spec.bank_conflict_factor;
  for (const Site& site : ctx.sites()) {
    if (site.stmt->kind != StmtKind::kCopy) continue;
    const auto* op = static_cast<const CopyNode*>(site.stmt.get());
    bool reads_shared = op->src.buffer->scope == MemScope::kShared;
    bool writes_shared = op->dst.buffer->scope == MemScope::kShared;
    if (!reads_shared && !writes_shared) continue;
    const BufferRegion& region = reads_shared ? op->src : op->dst;
    if (region.offsets.size() != region.buffer->shape.size() ||
        region.sizes.size() != region.offsets.size()) {
      continue;  // malformed; the verifier reports V009
    }
    BankAccess access;
    access.site = site.stmt.get();
    access.buffer = region.buffer->name;
    access.path = site.path;
    access.is_read = reads_shared;
    // The swizzled layout XOR-permutes words within a row segment and is
    // conflict-free by construction; the geometric degree applies to the
    // plain row-major layout only.
    access.degree = options.swizzle ? 1 : ConflictDegree(region);
    access.bytes = region.NumBytes();
    access.executions = ctx.CountExecutions(site);
    report.max_degree = std::max(report.max_degree, access.degree);
    if (access.is_read && access.executions > 0) {
      report.predicted_lds_read_bytes +=
          static_cast<double>(access.bytes) *
          static_cast<double>(access.executions);
    }
    if (!options.swizzle &&
        static_cast<double>(access.degree) >
            options.spec.bank_conflict_factor) {
      std::ostringstream msg;
      msg << "unswizzled shared-memory access to '" << access.buffer
          << "' has bank-conflict degree " << access.degree
          << " (model charges the calibrated factor "
          << options.spec.bank_conflict_factor
          << "); enable the swizzled layout to serialize-free the access";
      verify::Diagnostic& diag =
          diags.Emit(verify::Severity::kWarning, "L005", msg.str());
      diag.path = site.path;
      diag.span = site.stmt->span;
    }
    report.accesses.push_back(std::move(access));
  }
  return report;
}

}  // namespace analysis
}  // namespace alcop
