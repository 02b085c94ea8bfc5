#include "analysis/context.h"

#include <sstream>
#include <utility>

#include "ir/expr.h"
#include "ir/simplify.h"
#include "verify/diagnostic.h"

namespace alcop {
namespace analysis {

using namespace alcop::ir;  // NOLINT(google-build-using-namespace)

namespace {

std::string PathOf(const std::vector<const ForNode*>& loops,
                   const StmtNode* leaf) {
  std::ostringstream out;
  for (const ForNode* loop : loops) out << "for " << loop->var->name << " / ";
  out << verify::StmtLabel(leaf);
  return out.str();
}

void CollectSites(const Stmt& s, std::vector<const ForNode*>* loops,
                  std::vector<Guard>* guards, std::vector<Site>* out) {
  switch (s->kind) {
    case StmtKind::kBlock:
      for (const Stmt& child : static_cast<const BlockNode*>(s.get())->seq) {
        CollectSites(child, loops, guards, out);
      }
      return;
    case StmtKind::kPragma:
      CollectSites(static_cast<const PragmaNode*>(s.get())->body, loops,
                   guards, out);
      return;
    case StmtKind::kFor: {
      const auto* op = static_cast<const ForNode*>(s.get());
      loops->push_back(op);
      CollectSites(op->body, loops, guards, out);
      loops->pop_back();
      return;
    }
    case StmtKind::kIfThenElse: {
      const auto* op = static_cast<const IfThenElseNode*>(s.get());
      guards->push_back({op->cond, false});
      CollectSites(op->then_case, loops, guards, out);
      guards->back().negated = true;
      if (op->else_case != nullptr) {
        CollectSites(op->else_case, loops, guards, out);
      }
      guards->pop_back();
      return;
    }
    default:
      out->push_back(Site{s, *loops, *guards, PathOf(*loops, s.get())});
      return;
  }
}

bool ConstExtent(const ForNode* loop, int64_t* extent) {
  return AsConst(Simplify(loop->extent), extent);
}

}  // namespace

AnalysisContext::AnalysisContext(ir::Stmt program, LintOptions options)
    : program_(std::move(program)), options_(options) {}

const std::vector<Site>& AnalysisContext::sites() {
  if (!sites_ready_) {
    std::vector<const ForNode*> loops;
    std::vector<Guard> guards;
    CollectSites(program_, &loops, &guards, &sites_);
    sites_ready_ = true;
  }
  return sites_;
}

const std::vector<Buffer>& AnalysisContext::allocs() {
  if (!allocs_ready_) {
    allocs_ = CollectAllocatedBuffers(program_);
    allocs_ready_ = true;
  }
  return allocs_;
}

int64_t AnalysisContext::NumWarps() {
  if (num_warps_ < 0) {
    int64_t warps = 1;
    for (const Site& site : sites()) {
      int64_t here = 1;
      for (const ForNode* loop : site.loops) {
        int64_t extent = 0;
        if (loop->for_kind == ForKind::kWarp && ConstExtent(loop, &extent)) {
          here *= extent;
        }
      }
      warps = std::max(warps, here);
    }
    num_warps_ = warps;
  }
  return num_warps_;
}

bool AnalysisContext::LoopRanges(const Site& site,
                                 std::vector<VarRange>* out) {
  out->clear();
  out->reserve(site.loops.size());
  for (const ForNode* loop : site.loops) {
    int64_t extent = 0;
    if (!ConstExtent(loop, &extent)) return false;
    out->push_back(VarRange{loop->var.get(), extent});
  }
  return true;
}

int64_t AnalysisContext::CountExecutions(const Site& site) {
  std::vector<VarRange> ranges;
  if (!LoopRanges(site, &ranges)) return -1;
  if (site.guards.empty()) {
    int64_t total = 1;
    for (const VarRange& r : ranges) total *= r.extent;
    return total;
  }
  // Project the nest onto the variables the guards read: iterations of
  // the remaining loops multiply through unconditionally.
  std::vector<size_t> guard_dims;
  int64_t rest = 1;
  for (size_t i = 0; i < ranges.size(); ++i) {
    bool used = false;
    for (const Guard& g : site.guards) {
      if (UsesVar(g.cond, site.loops[i]->var)) {
        used = true;
        break;
      }
    }
    if (used) {
      guard_dims.push_back(i);
    } else {
      rest *= ranges[i].extent;
    }
  }
  int64_t combos = 1;
  for (size_t d : guard_dims) {
    combos *= ranges[d].extent;
    if (combos > options_.max_enumeration) return -1;
  }
  std::vector<VarBinding> env(guard_dims.size());
  for (size_t i = 0; i < guard_dims.size(); ++i) {
    env[i] = {ranges[guard_dims[i]].var, 0};
  }
  int64_t holds = 0;
  for (int64_t flat = 0; flat < combos; ++flat) {
    int64_t rem = flat;
    for (size_t i = 0; i < guard_dims.size(); ++i) {
      env[i].value = rem % ranges[guard_dims[i]].extent;
      rem /= ranges[guard_dims[i]].extent;
    }
    bool ok = true;
    for (const Guard& g : site.guards) {
      int64_t v = 0;
      try {
        v = Evaluate(g.cond, env);
      } catch (...) {
        return -1;  // guard reads a variable outside the nest
      }
      if ((v != 0) == g.negated) {
        ok = false;
        break;
      }
    }
    if (ok) ++holds;
  }
  return holds * rest;
}

}  // namespace analysis
}  // namespace alcop
