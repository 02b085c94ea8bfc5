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
#ifndef ALCOP_SIM_TRACE_H_
#define ALCOP_SIM_TRACE_H_

#include <cstdint>
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

template <typename Leaf>
class ThreadblockWalk {
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
};

}  // namespace internal

// The one walk of a lowered kernel for one representative threadblock:
// blockIdx loops pinned to 0, every other loop unrolled, `if`s evaluated,
// each leaf broadcast to the warps the enclosing warp loops address (copy
// and store bytes split evenly over them), and global->global copies —
// standalone elementwise passes, charged at launch level — skipped. Calls
// leaf(const TraceEvent&, WarpRange) once per timing-relevant statement,
// in program order.
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
