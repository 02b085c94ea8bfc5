// Per-warp event traces, and the one walk of a lowered kernel that
// produces them.
//
// The timing simulator does not execute data; it walks a lowered
// (possibly pipelined) kernel once for a representative threadblock and
// records, for every warp, the sequence of timing-relevant events: copy
// issues, pipeline synchronization, barriers, tensor-core MMAs and global
// stores. WalkThreadblock is that walk. BuildTrace collects its events into
// per-warp streams for the reference interpreter (desim.h); the trace
// compiler (compile.h) turns the same events into micro-ops for replay, so
// both cores see exactly one interpretation of the IR.
//
// Cooperative operations (shared-memory copies, threadblock barriers,
// shared-scope pipeline primitives) appear outside warp loops in the IR;
// the walk broadcasts them to every warp, splitting copy bytes evenly —
// matching how cp.async and mbarriers are actually issued per warp.
//
// Runs of identical iterations. A leaf's TraceEvent depends on the loop
// variables only through control: the walk never reads its bindings when
// it builds an event (bytes come from static region extents, FLOPs from
// MMA shapes, groups and wait depths from the statement), so which leaves
// a loop iteration visits, and the warps they address, are decided by the
// `if` conditions and loop extents in the body alone. Two iterations on
// which every such expression that reads the loop variable evaluates the
// same therefore make the same sequence of leaf calls. ALCOP's pipelined
// steady state is one long run: its only guards on the loop variable are
// the recursive-mode `if (v + stages - 1 < extent)` and the fused-mode
// `if (outer == 0)`. A leaf handler that can repeat what it emitted
// (Mark() and Repeat(mark, times)) gets the body walked once per maximal
// run of iterations and repeats the rest; the trace compiler's does, and
// BuildTrace's does not, so the reference interpreter still sees every
// iteration walked.
#ifndef ALCOP_SIM_TRACE_H_
#define ALCOP_SIM_TRACE_H_

#include <cstdint>
#include <deque>
#include <type_traits>
#include <utility>
#include <vector>

#include "ir/stmt.h"
#include "support/check.h"

namespace alcop {
namespace sim {

enum class EventKind {
  kCopyAsync,    // asynchronous copy: issue cost now, transfer in background
  kCopySync,     // blocking copy: warp stalls until the transfer completes
  kAcquire,      // producer_acquire
  kCommit,       // producer_commit
  kWait,         // consumer_wait
  kRelease,      // consumer_release
  kBarrier,      // threadblock barrier
  kMma,          // tensor-core work
  kFill,         // accumulator initialization (cheap register writes)
  kStoreGlobal,  // epilogue write-back
};

struct TraceEvent {
  EventKind kind = EventKind::kBarrier;
  int64_t bytes = 0;  // copy / store / fill payload
  int64_t flops = 0;  // kMma
  int group = -1;     // pipeline group id for copy/sync events
  int wait_ahead = 0;
  ir::MemScope src_scope = ir::MemScope::kGlobal;
  ir::MemScope dst_scope = ir::MemScope::kShared;
  // Source global tensor of a load (for the LLC working-set model).
  const ir::BufferNode* src_tensor = nullptr;
};

struct WarpTrace {
  std::vector<TraceEvent> events;
};

struct ThreadblockTrace {
  int num_warps = 1;
  std::vector<WarpTrace> warps;

  int64_t TotalEvents() const {
    int64_t total = 0;
    for (const WarpTrace& warp : warps) {
      total += static_cast<int64_t>(warp.events.size());
    }
    return total;
  }
};

// The warps of the threadblock one statement addresses: the flattened
// range covered by the enclosing warp-loop bindings.
struct WarpRange {
  int begin = 0;
  int end = 0;  // exclusive
  int Count() const { return end - begin; }
};

namespace internal {

// The control that a serial loop's body reads of the loop variable: every
// `if` condition and loop extent in the body that uses it, in walk order.
// `per_iteration` is set when one of them also reads the variable of a
// loop inside the body: evaluating it once per iteration of this loop
// would not decide what the body emits, so the loop is walked iteration
// by iteration.
struct LoopControl {
  const ir::ForNode* loop = nullptr;
  std::vector<const ir::Expr*> exprs;
  bool per_iteration = false;
};
LoopControl AnalyzeLoopControl(const ir::ForNode& loop);

template <typename Leaf>
class ThreadblockWalk {
  // Mark() snapshots what the handler has emitted; Repeat(mark, times)
  // appends what it emitted since `mark` `times` more times.
  static constexpr bool kRepeats = requires(Leaf& leaf) {
    leaf.Repeat(leaf.Mark(), int64_t{1});
  };

 public:
  ThreadblockWalk(int num_warps, Leaf& leaf)
      : num_warps_(num_warps), leaf_(leaf), warps_{0, num_warps} {}

  void Walk(const ir::Stmt& s) {
    using namespace alcop::ir;  // NOLINT(build/namespaces) - IR walk
    switch (s->kind) {
      case StmtKind::kBlock:
        for (const Stmt& child : static_cast<const BlockNode*>(s.get())->seq) {
          Walk(child);
        }
        return;
      case StmtKind::kPragma:
        Walk(static_cast<const PragmaNode*>(s.get())->body);
        return;
      case StmtKind::kAlloc:
        return;
      case StmtKind::kFor: {
        const auto* op = static_cast<const ForNode*>(s.get());
        int64_t extent = Evaluate(op->extent, env_);
        if (op->for_kind == ForKind::kBlockIdx) {
          // One representative threadblock: all blocks run the same trace.
          env_.push_back({op->var.get(), 0});
          Walk(op->body);
          env_.pop_back();
          return;
        }
        bool is_warp = op->for_kind == ForKind::kWarp;
        if constexpr (kRepeats) {
          // A warp loop's iterations address different warps, so they
          // never form a run.
          if (!is_warp && extent > 1) {
            const LoopControl& control = ControlOf(*op);
            if (!control.per_iteration) {
              WalkRuns(*op, extent, control.exprs);
              return;
            }
          }
        }
        for (int64_t i = 0; i < extent; ++i) {
          env_.push_back({op->var.get(), i});
          if (is_warp) {
            warp_stack_.emplace_back(extent, i);
            UpdateWarps();
          }
          Walk(op->body);
          if (is_warp) {
            warp_stack_.pop_back();
            UpdateWarps();
          }
          env_.pop_back();
        }
        return;
      }
      case StmtKind::kIfThenElse: {
        const auto* op = static_cast<const IfThenElseNode*>(s.get());
        if (Evaluate(op->cond, env_) != 0) {
          Walk(op->then_case);
        } else if (op->else_case != nullptr) {
          Walk(op->else_case);
        }
        return;
      }
      default:
        Visit(*s);
        return;
    }
  }

 private:
  // Walks the body of `loop` once per maximal run of consecutive
  // iterations on which every expression of `exprs` (its LoopControl)
  // evaluates the same, and has the leaf repeat that walk's emission for
  // the rest of the run.
  void WalkRuns(const ir::ForNode& loop, int64_t extent,
                const std::vector<const ir::Expr*>& exprs) {
    env_.push_back({loop.var.get(), 0});
    std::vector<int64_t> run(exprs.size());
    std::vector<int64_t> next(exprs.size());
    EvaluateAll(exprs, run);
    for (int64_t begin = 0; begin < extent;) {
      env_.back().value = begin;
      auto mark = leaf_.Mark();
      Walk(loop.body);
      int64_t end = exprs.empty() ? extent : begin + 1;
      for (; end < extent; ++end) {
        env_.back().value = end;
        EvaluateAll(exprs, next);
        if (next != run) break;
      }
      if (end - begin > 1) leaf_.Repeat(mark, end - begin - 1);
      run.swap(next);
      begin = end;
    }
    env_.pop_back();
  }

  void EvaluateAll(const std::vector<const ir::Expr*>& exprs,
                   std::vector<int64_t>& values) const {
    for (size_t i = 0; i < exprs.size(); ++i) {
      values[i] = ir::Evaluate(*exprs[i], env_);
    }
  }

  // Analyzed once per loop per walk.
  const LoopControl& ControlOf(const ir::ForNode& loop) {
    for (const LoopControl& control : controls_) {
      if (control.loop == &loop) return control;
    }
    controls_.push_back(AnalyzeLoopControl(loop));
    return controls_.back();
  }

  // Builds the event of one leaf statement and hands it, with the warps it
  // addresses, to the leaf handler. Kept apart from the recursive Walk so
  // the handler is called from one place.
  void Visit(const ir::StmtNode& s) {
    using namespace alcop::ir;  // NOLINT(build/namespaces) - IR walk
    TraceEvent event;
    bool split_bytes = false;
    switch (s.kind) {
      case StmtKind::kCopy: {
        const auto& op = static_cast<const CopyNode&>(s);
        MemScope src = op.src.buffer->scope;
        MemScope dst = op.dst.buffer->scope;
        if (src == MemScope::kGlobal && dst == MemScope::kGlobal) {
          return;  // standalone elementwise pass, charged at launch level
        }
        event.src_scope = src;
        event.dst_scope = dst;
        split_bytes = true;
        if (dst == MemScope::kGlobal) {
          event.kind = EventKind::kStoreGlobal;
          event.bytes = op.dst.NumBytes();
          break;
        }
        event.kind = op.is_async ? EventKind::kCopyAsync : EventKind::kCopySync;
        event.bytes = op.src.NumElements() * op.dst.buffer->elem_bytes;
        event.group = op.pipeline_group;
        if (src == MemScope::kGlobal) event.src_tensor = op.src.buffer.get();
        break;
      }
      case StmtKind::kFill:
        event.kind = EventKind::kFill;
        event.bytes = static_cast<const FillNode&>(s).dst.NumBytes();
        break;
      case StmtKind::kMma:
        event.kind = EventKind::kMma;
        event.flops = static_cast<const MmaNode&>(s).Flops();
        break;
      case StmtKind::kSync: {
        const auto& op = static_cast<const SyncNode&>(s);
        event.group = op.group;
        switch (op.sync_kind) {
          case SyncKind::kBarrier:
            event.kind = EventKind::kBarrier;
            break;
          case SyncKind::kProducerAcquire:
            event.kind = EventKind::kAcquire;
            break;
          case SyncKind::kProducerCommit:
            event.kind = EventKind::kCommit;
            break;
          case SyncKind::kConsumerWait:
            event.kind = EventKind::kWait;
            event.wait_ahead = op.wait_ahead;
            break;
          case SyncKind::kConsumerRelease:
            event.kind = EventKind::kRelease;
            break;
        }
        break;
      }
      default:
        ALCOP_CHECK(false) << "unhandled statement in threadblock walk";
    }
    ALCOP_CHECK(covered_)
        << "warp loop nest does not evenly cover the threadblock's warps";
    if (split_bytes && warps_.Count() > 1) event.bytes /= warps_.Count();
    leaf_(event, warps_);
  }

  // Folds the enclosing warp-loop bindings into the range they address;
  // run when a warp loop binds or releases a value, not per leaf.
  void UpdateWarps() {
    int prod = 1;
    int fold = 0;
    for (const auto& [extent, value] : warp_stack_) {
      prod *= static_cast<int>(extent);
      fold = fold * static_cast<int>(extent) + static_cast<int>(value);
    }
    covered_ = num_warps_ % prod == 0;
    int span = covered_ ? num_warps_ / prod : 0;
    warps_ = {fold * span, (fold + 1) * span};
  }

  int num_warps_;
  Leaf& leaf_;
  std::vector<ir::VarBinding> env_;
  std::vector<std::pair<int64_t, int64_t>> warp_stack_;  // (extent, value)
  WarpRange warps_;      // addressed by the current warp-loop bindings
  bool covered_ = true;  // the bindings evenly cover the warps
  // A deque: WalkRuns keeps a reference to its loop's entry while the
  // nested walk analyzes inner loops.
  std::deque<LoopControl> controls_;
};

}  // namespace internal

// The one walk of a lowered kernel for one representative threadblock:
// blockIdx loops pinned to 0, every other loop unrolled (a serial loop
// walked once per run of identical iterations when the leaf handler can
// repeat; see the top of this file), `if`s evaluated,
// each leaf broadcast to the warps the enclosing warp loops address (copy
// and store bytes split evenly over them), and global->global copies —
// standalone elementwise passes, charged at launch level — skipped. Calls
// leaf(const TraceEvent&, WarpRange) once per timing-relevant statement,
// in program order (a repeating leaf: once per statement of a run's
// first iteration, then Repeat for the rest of the run).
template <typename Leaf>
void WalkThreadblock(const ir::Stmt& program, int num_warps, Leaf&& leaf) {
  internal::ThreadblockWalk<std::remove_reference_t<Leaf>>(num_warps, leaf)
      .Walk(program);
}

// Collects the walk into per-warp traces (the reference interpreter's
// input).
ThreadblockTrace BuildTrace(const ir::Stmt& program, int num_warps);

}  // namespace sim
}  // namespace alcop

#endif  // ALCOP_SIM_TRACE_H_
