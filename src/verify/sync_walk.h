// The one static interpretation of the pipeline sync primitives.
//
// Both static race checkers replay a kernel's producer_acquire/commit and
// consumer_wait/release (Sec. III-B) without executing data: the verifier
// (verify/verifier.cc, V001-V009) and alcop-lint's region-race check
// (analysis/races.cc, L003/L004). They differ only in how they track an
// in-flight async write: the verifier by its stage slot (one index along
// the leading dimension) with an epoch, lint by the rectangular box it
// covers, which also sees warp-specialized schedules that split one slot
// between producer warps. SyncWalk is everything else, written once:
//   - loop enumeration: serial and unrolled loops run in full (extents
//     are static in lowered IR), so the FIFO state follows real
//     iteration sequences, including the global rolling index of fused
//     inner pipelines and the wait_ahead slack of their enclosing outer
//     pipeline; blockIdx and warp loops run one representative instance
//     (index 0), since pipeline state is per instance in the executor
//     and identical across instances;
//   - `if` evaluation, and the loop path of every diagnostic
//     ("for ko=3 / copy(A_reg)");
//   - one report per (statement, code): a bug inside a loop is reported
//     at its first occurrence, not once per iteration;
//   - the acquire/commit/wait/release FIFO of each pipeline group, with
//     the executor's counters (sim::PipelineState);
//   - one step budget, kMaxSteps statement visits, after which the walk
//     stops and says so.
//
// The walk is a base of its tracker, which names itself and its write
// record as the template arguments. The tracker provides
//   void Read(const ir::StmtNode*, const ir::BufferRegion&);
//   void Overwrite(const ir::StmtNode*, const ir::BufferRegion&);
//   bool AsyncWrite(const ir::CopyNode*, int64_t commit_group, Write*);
//   void Promote(const Write&);
// for a read, a synchronous write, an async write into the open commit
// group (the record, if any, joins that group), and a consumer_wait
// making a committed write visible. The walk's public hooks do nothing
// unless the tracker hides them; the verifier's slot tracker does, to
// report its V-codes, so only the verifier emits those.
#ifndef ALCOP_VERIFY_SYNC_WALK_H_
#define ALCOP_VERIFY_SYNC_WALK_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ir/expr.h"
#include "ir/stmt.h"
#include "support/check.h"
#include "verify/diagnostic.h"

namespace alcop {
namespace verify {

// Statement visits after which a walk stops. Compiled kernels stay far
// below it; a hand-written .tir file need not.
constexpr int64_t kMaxSteps = int64_t{1} << 22;

// Printed in place of a clean verdict when a walk stopped at kMaxSteps.
inline constexpr char kStepLimitNote[] =
    "note: interpretation stopped at the step limit; findings may be "
    "incomplete";

template <typename Tracker, typename Write>
class SyncWalk {
 public:
  explicit SyncWalk(DiagnosticEngine* diags) : diags_(diags) {}

  void Run(const ir::Stmt& program) { Exec(program); }
  bool reached_step_limit() const { return steps_ > kMaxSteps; }

  // Hooks a tracker may hide. Malformed: a structural finding
  // (unevaluable expression, missing group tag or buffers). Check: runs
  // before a copy, fill or MMA touches the sync state.
  void Malformed(const ir::StmtNode*, const std::string&) {}
  template <typename Node>
  void Check(const Node*) {}
  void Barrier(const ir::SyncNode*) {}
  // A producer_acquire with `live` groups committed and not released.
  void Acquire(const ir::SyncNode*, int64_t /*live*/) {}
  // A consumer_wait whose target group was never committed; it promotes
  // nothing, as in the executor.
  void WaitPastCommitted(const ir::SyncNode*, int64_t /*target*/,
                         int64_t /*committed*/) {}
  // A consumer_release with every committed group already released; it
  // releases nothing.
  void ReleasePastCommitted(const ir::SyncNode*, int64_t /*committed*/) {}

 protected:
  // Emits one diagnostic at `site` with the current loop path, or
  // returns nullptr when `site` already reported `code`.
  Diagnostic* Emit(const ir::StmtNode* site, Severity severity,
                   const char* code, std::string message) {
    if (!reported_.insert({site, code}).second) return nullptr;
    Diagnostic& diag = diags_->Emit(severity, code, std::move(message));
    for (const std::string& entry : path_) diag.path += entry + " / ";
    diag.path += StmtLabel(site);
    diag.span = site->span;
    return &diag;
  }

  // Evaluates `e` in the current environment; an unbound variable or
  // another evaluation error is a Malformed finding at `site`.
  bool Eval(const ir::Expr& e, const ir::StmtNode* site, int64_t* out) {
    try {
      *out = ir::Evaluate(e, env_);
      return true;
    } catch (const CheckError& error) {
      self().Malformed(site, std::string("unevaluable index expression: ") +
                                 error.what());
      return false;
    }
  }

  // A blockIdx or warp loop enclosing the statement being interpreted.
  struct ParallelLoop {
    const ir::VarNode* var;
    int64_t extent;
    size_t env_index;  // position of its binding in env_
  };

  std::vector<ir::VarBinding> env_;
  std::vector<ParallelLoop> parallel_;  // outermost first
  int warp_depth_ = 0;                  // enclosing warp loops

 private:
  // The FIFO of one pipeline group.
  struct Fifo {
    int64_t committed = 0;
    int64_t waited = 0;
    int64_t released = 0;
    int64_t promoted_upto = -1;
    std::vector<Write> open;                 // writes of the open group
    std::vector<std::vector<Write>> groups;  // committed groups
  };

  Tracker& self() { return static_cast<Tracker&>(*this); }

  void Exec(const ir::Stmt& s) {
    using namespace alcop::ir;  // NOLINT(build/namespaces) - IR walk
    if (++steps_ > kMaxSteps) return;
    switch (s->kind) {
      case StmtKind::kBlock:
        for (const Stmt& child : static_cast<const BlockNode*>(s.get())->seq) {
          Exec(child);
        }
        return;
      case StmtKind::kPragma:
        Exec(static_cast<const PragmaNode*>(s.get())->body);
        return;
      case StmtKind::kFor:
        ExecFor(static_cast<const ForNode*>(s.get()));
        return;
      case StmtKind::kIfThenElse: {
        const auto* op = static_cast<const IfThenElseNode*>(s.get());
        int64_t cond = 0;
        if (!Eval(op->cond, op, &cond)) return;
        if (cond != 0) {
          Exec(op->then_case);
        } else if (op->else_case != nullptr) {
          Exec(op->else_case);
        }
        return;
      }
      case StmtKind::kAlloc:
        return;
      case StmtKind::kCopy:
        ExecCopy(static_cast<const CopyNode*>(s.get()));
        return;
      case StmtKind::kFill: {
        const auto* op = static_cast<const FillNode*>(s.get());
        self().Check(op);
        self().Overwrite(op, op->dst);
        return;
      }
      case StmtKind::kMma: {
        // The accumulator is read-modify-write but never pipelined; the
        // executor does not track it either.
        const auto* op = static_cast<const MmaNode*>(s.get());
        self().Check(op);
        self().Read(op, op->a);
        self().Read(op, op->b);
        return;
      }
      case StmtKind::kSync:
        ExecSync(static_cast<const SyncNode*>(s.get()));
        return;
    }
    self().Malformed(s.get(), "unhandled statement kind");
  }

  void ExecFor(const ir::ForNode* op) {
    int64_t extent = 0;
    if (!Eval(op->extent, op, &extent) || extent <= 0) return;
    const std::string& name = op->var->name;
    env_.push_back({op->var.get(), 0});
    if (op->for_kind == ir::ForKind::kBlockIdx ||
        op->for_kind == ir::ForKind::kWarp) {
      int warp = op->for_kind == ir::ForKind::kWarp ? 1 : 0;
      parallel_.push_back({op->var.get(), extent, env_.size() - 1});
      warp_depth_ += warp;
      path_.push_back("for " + name + "=0.." + std::to_string(extent - 1) +
                      "(" + ir::ForKindName(op->for_kind) + ")");
      Exec(op->body);
      warp_depth_ -= warp;
      parallel_.pop_back();
    } else {
      path_.emplace_back();
      for (int64_t i = 0; i < extent && steps_ <= kMaxSteps; ++i) {
        env_.back().value = i;
        path_.back() = "for " + name + "=" + std::to_string(i);
        Exec(op->body);
      }
    }
    path_.pop_back();
    env_.pop_back();
  }

  void ExecCopy(const ir::CopyNode* op) {
    self().Check(op);
    self().Read(op, op->src);
    if (!op->is_async) {
      self().Overwrite(op, op->dst);
      return;
    }
    if (op->pipeline_group < 0) {
      self().Malformed(op, "async copy into '" + op->dst.buffer->name +
                               "' carries no @group tag");
      return;
    }
    Fifo& pipe = pipes_[op->pipeline_group];
    Write write;
    if (self().AsyncWrite(op, pipe.committed, &write)) {
      pipe.open.push_back(std::move(write));
    }
  }

  void ExecSync(const ir::SyncNode* op) {
    using ir::SyncKind;
    if (op->sync_kind == SyncKind::kBarrier) {
      self().Barrier(op);
      return;
    }
    if (op->group < 0) {
      self().Malformed(op, "pipeline sync primitive without a group id");
      return;
    }
    if (op->buffers.empty()) {
      self().Malformed(op,
                       "pipeline sync primitive without associated buffers");
      return;
    }
    Fifo& pipe = pipes_[op->group];
    switch (op->sync_kind) {
      case SyncKind::kProducerAcquire:
        self().Acquire(op, pipe.committed - pipe.released);
        return;
      case SyncKind::kProducerCommit:
        pipe.groups.push_back(std::move(pipe.open));
        pipe.open.clear();
        ++pipe.committed;
        return;
      case SyncKind::kConsumerWait: {
        int64_t target = pipe.waited + op->wait_ahead;
        if (target >= pipe.committed) {
          self().WaitPastCommitted(op, target, pipe.committed);
          return;
        }
        for (int64_t g = pipe.promoted_upto + 1; g <= target; ++g) {
          for (const Write& write : pipe.groups[static_cast<size_t>(g)]) {
            self().Promote(write);
          }
        }
        pipe.promoted_upto = std::max(pipe.promoted_upto, target);
        ++pipe.waited;
        return;
      }
      case SyncKind::kConsumerRelease:
        if (pipe.released == pipe.committed) {
          self().ReleasePastCommitted(op, pipe.committed);
          return;
        }
        ++pipe.released;
        return;
      default:
        return;
    }
  }

  DiagnosticEngine* diags_;
  int64_t steps_ = 0;
  std::vector<std::string> path_;
  std::map<int, Fifo> pipes_;
  std::set<std::pair<const ir::StmtNode*, std::string>> reported_;
};

}  // namespace verify
}  // namespace alcop

#endif  // ALCOP_VERIFY_SYNC_WALK_H_
