#include "analysis/bounds.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "ir/expr.h"
#include "support/check.h"

namespace alcop {
namespace analysis {

using namespace alcop::ir;  // NOLINT(google-build-using-namespace)

namespace {

struct RegionRef {
  const BufferRegion* region;
  const char* role;
};

std::vector<RegionRef> RegionsOf(const StmtNode* s) {
  switch (s->kind) {
    case StmtKind::kCopy: {
      const auto* op = static_cast<const CopyNode*>(s);
      return {{&op->dst, "dst"}, {&op->src, "src"}};
    }
    case StmtKind::kFill:
      return {{&static_cast<const FillNode*>(s)->dst, "dst"}};
    case StmtKind::kMma: {
      const auto* op = static_cast<const MmaNode*>(s);
      return {{&op->c, "c"}, {&op->a, "a"}, {&op->b, "b"}};
    }
    default:
      return {};
  }
}

class BoundsChecker {
 public:
  BoundsChecker(AnalysisContext& ctx, verify::DiagnosticEngine& diags)
      : ctx_(ctx), diags_(diags) {}

  void Run() {
    for (const Site& site : ctx_.sites()) {
      for (const RegionRef& ref : RegionsOf(site.stmt.get())) {
        CheckRegion(site, *ref.region);
      }
    }
  }

 private:
  void Emit(const Site& site, verify::Severity severity, const char* code,
            std::string message) {
    verify::Diagnostic& diag = diags_.Emit(severity, code, std::move(message));
    diag.path = site.path;
    diag.span = site.stmt->span;
  }

  void EmitOob(const Site& site, const BufferRegion& region, size_t dim,
               int64_t lo, int64_t hi) {
    std::ostringstream msg;
    msg << "provable out-of-bounds access to '" << region.buffer->name << "' ("
        << MemScopeName(region.buffer->scope) << " scope) in dim " << dim
        << ": offset range [" << lo << ", " << hi << "] with size "
        << region.sizes[dim] << " exceeds extent "
        << region.buffer->shape[dim];
    Emit(site, verify::Severity::kError, "L001", msg.str());
  }

  void EmitUnprovable(const Site& site, const BufferRegion& region,
                      size_t dim, const char* why) {
    std::ostringstream msg;
    msg << "cannot prove bounds of '" << region.buffer->name << "' ("
        << MemScopeName(region.buffer->scope) << " scope) in dim " << dim
        << ": " << why;
    Emit(site, verify::Severity::kWarning, "L002", msg.str());
  }

  void CheckRegion(const Site& site, const BufferRegion& region) {
    // Structural malformations (dim mismatches, non-positive sizes) are
    // the sync verifier's V009; the bounds check only reasons about
    // well-formed regions.
    if (region.offsets.size() != region.sizes.size() ||
        region.offsets.size() != region.buffer->shape.size()) {
      return;
    }
    std::vector<VarRange> ranges;
    bool have_ranges = AnalysisContext::LoopRanges(site, &ranges);
    for (size_t d = 0; d < region.offsets.size(); ++d) {
      if (!have_ranges) {
        EmitUnprovable(site, region, d, "a loop extent is not constant");
        continue;
      }
      CheckDim(site, region, d, ranges);
    }
  }

  void CheckDim(const Site& site, const BufferRegion& region, size_t d,
                const std::vector<VarRange>& ranges) {
    int64_t size = region.sizes[d];
    int64_t extent = region.buffer->shape[d];
    Interval iv;
    if (EvalInterval(region.offsets[d], ranges, &iv)) {
      if (iv.lo >= 0 && iv.hi + size <= extent) return;  // proven in-bounds
      if (iv.exact && site.guards.empty()) {
        EmitOob(site, region, d, iv.lo, iv.hi);
        return;
      }
    }
    EnumerateDim(site, region, d, ranges);
  }

  // Exact fallback: enumerate the projection of the nest onto the
  // variables the offset and the guards read. The projection is exact
  // because the nest is rectangular: unused loop variables cannot change
  // either the offset or the guard outcome.
  void EnumerateDim(const Site& site, const BufferRegion& region, size_t d,
                    const std::vector<VarRange>& ranges) {
    std::vector<VarRange> relevant;
    for (size_t i = 0; i < ranges.size(); ++i) {
      const Var& v = site.loops[i]->var;
      bool used = UsesVar(region.offsets[d], v);
      for (const Guard& g : site.guards) {
        if (used) break;
        used = UsesVar(g.cond, v);
      }
      if (used) relevant.push_back(ranges[i]);
    }
    int64_t combos = 1;
    for (const VarRange& r : relevant) {
      combos *= r.extent;
      if (combos > ctx_.options().max_enumeration) {
        EmitUnprovable(site, region, d,
                       "loop-nest projection exceeds the enumeration budget");
        return;
      }
    }
    std::vector<VarBinding> env(relevant.size());
    for (size_t i = 0; i < relevant.size(); ++i) {
      env[i] = {relevant[i].var, 0};
    }
    bool any = false;
    int64_t lo = 0;
    int64_t hi = 0;
    for (int64_t flat = 0; flat < combos; ++flat) {
      int64_t rem = flat;
      for (size_t i = 0; i < relevant.size(); ++i) {
        env[i].value = rem % relevant[i].extent;
        rem /= relevant[i].extent;
      }
      bool executes = true;
      int64_t value = 0;
      try {
        for (const Guard& g : site.guards) {
          if ((Evaluate(g.cond, env) != 0) == g.negated) {
            executes = false;
            break;
          }
        }
        if (!executes) continue;
        value = Evaluate(region.offsets[d], env);
      } catch (const CheckError&) {
        EmitUnprovable(site, region, d,
                       "the offset reads a variable outside the loop nest");
        return;
      }
      lo = any ? std::min(lo, value) : value;
      hi = any ? std::max(hi, value) : value;
      any = true;
    }
    if (!any) return;  // the guards disable every iteration
    if (lo < 0 || hi + region.sizes[d] > region.buffer->shape[d]) {
      EmitOob(site, region, d, lo, hi);
    }
  }

  AnalysisContext& ctx_;
  verify::DiagnosticEngine& diags_;
};

}  // namespace

void CheckBounds(AnalysisContext& ctx, verify::DiagnosticEngine& diags) {
  BoundsChecker(ctx, diags).Run();
}

}  // namespace analysis
}  // namespace alcop
