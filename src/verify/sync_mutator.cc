#include "verify/sync_mutator.h"

#include <utility>

#include "support/check.h"
#include "verify/diagnostic.h"

namespace alcop {
namespace verify {

using namespace alcop::ir;  // NOLINT(build/namespaces) - tree rewriter

namespace {

bool IsPipelineSync(const Stmt& s) {
  if (s->kind != StmtKind::kSync) return false;
  return static_cast<const SyncNode*>(s.get())->sync_kind !=
         SyncKind::kBarrier;
}

void Collect(const Stmt& s, std::vector<SyncSite>* out) {
  switch (s->kind) {
    case StmtKind::kBlock:
      for (const Stmt& child : static_cast<const BlockNode*>(s.get())->seq) {
        Collect(child, out);
      }
      return;
    case StmtKind::kFor:
      Collect(static_cast<const ForNode*>(s.get())->body, out);
      return;
    case StmtKind::kPragma:
      Collect(static_cast<const PragmaNode*>(s.get())->body, out);
      return;
    case StmtKind::kIfThenElse: {
      const auto* op = static_cast<const IfThenElseNode*>(s.get());
      Collect(op->then_case, out);
      if (op->else_case != nullptr) Collect(op->else_case, out);
      return;
    }
    case StmtKind::kSync: {
      if (!IsPipelineSync(s)) return;
      const auto* op = static_cast<const SyncNode*>(s.get());
      out->push_back({op, out->size(), StmtLabel(op)});
      return;
    }
    default:
      return;
  }
}

// Rewrites the tree applying one mutation at the target site, counting
// pipeline syncs in the same pre-order as Collect.
class Rewriter {
 public:
  Rewriter(size_t target, SyncMutation mutation, int wait_ahead,
           bool set_wait_ahead)
      : target_(target),
        mutation_(mutation),
        wait_ahead_(wait_ahead),
        set_wait_ahead_(set_wait_ahead) {}

  bool ok() const { return applied_ && !failed_; }

  Stmt Rewrite(const Stmt& s) {
    switch (s->kind) {
      case StmtKind::kBlock:
        return RewriteBlock(static_cast<const BlockNode*>(s.get()));
      case StmtKind::kFor: {
        const auto* op = static_cast<const ForNode*>(s.get());
        return Keep(s, For(op->var, op->extent, op->for_kind,
                           Rewrite(op->body)));
      }
      case StmtKind::kPragma: {
        const auto* op = static_cast<const PragmaNode*>(s.get());
        return Keep(s, Pragma(op->key, op->buffer, op->value,
                              Rewrite(op->body)));
      }
      case StmtKind::kIfThenElse: {
        const auto* op = static_cast<const IfThenElseNode*>(s.get());
        return Keep(s, IfThenElse(op->cond, Rewrite(op->then_case),
                                  op->else_case != nullptr
                                      ? Rewrite(op->else_case)
                                      : nullptr));
      }
      case StmtKind::kSync: {
        // A sync that is a loop/pragma/if body directly, outside a block:
        // drop and duplicate still apply; shifting has no neighbors.
        if (!IsPipelineSync(s) || counter_++ != target_) return s;
        applied_ = true;
        if (set_wait_ahead_) return WithWaitAhead(s);
        switch (mutation_) {
          case SyncMutation::kDrop:
            return Block({});
          case SyncMutation::kDuplicate:
            return Block({s, s});
          case SyncMutation::kShiftEarlier:
          case SyncMutation::kShiftLater:
            failed_ = true;
            return s;
        }
        return s;
      }
      default:
        return s;
    }
  }

 private:
  // Preserves the original source span on a rebuilt node.
  static Stmt Keep(const Stmt& original, Stmt rebuilt) {
    rebuilt->span = original->span;
    return rebuilt;
  }

  Stmt WithWaitAhead(const Stmt& s) {
    const auto* op = static_cast<const SyncNode*>(s.get());
    if (op->sync_kind != SyncKind::kConsumerWait) {
      failed_ = true;
      return s;
    }
    return Keep(s, Sync(op->sync_kind, op->group, op->buffers, wait_ahead_));
  }

  Stmt RewriteBlock(const BlockNode* block) {
    std::vector<Stmt> out;
    out.reserve(block->seq.size());
    Stmt deferred;  // sync being shifted one position later
    for (const Stmt& child : block->seq) {
      if (IsPipelineSync(child)) {
        if (counter_++ == target_) {
          applied_ = true;
          if (set_wait_ahead_) {
            out.push_back(WithWaitAhead(child));
            continue;
          }
          switch (mutation_) {
            case SyncMutation::kDrop:
              continue;
            case SyncMutation::kDuplicate:
              out.push_back(child);
              out.push_back(child);
              continue;
            case SyncMutation::kShiftEarlier:
              if (out.empty()) {
                failed_ = true;
                out.push_back(child);
              } else {
                out.insert(out.end() - 1, child);
              }
              continue;
            case SyncMutation::kShiftLater:
              deferred = child;
              continue;
          }
        }
        out.push_back(child);
      } else {
        out.push_back(Rewrite(child));
      }
      if (deferred != nullptr) {
        out.push_back(deferred);
        deferred = nullptr;
      }
    }
    if (deferred != nullptr) failed_ = true;  // was the last statement
    return Block(std::move(out));
  }

  size_t target_;
  SyncMutation mutation_;
  int wait_ahead_;
  bool set_wait_ahead_;
  size_t counter_ = 0;
  bool applied_ = false;
  bool failed_ = false;
};

}  // namespace

const char* SyncMutationName(SyncMutation mutation) {
  switch (mutation) {
    case SyncMutation::kDrop: return "drop";
    case SyncMutation::kDuplicate: return "duplicate";
    case SyncMutation::kShiftEarlier: return "shift-earlier";
    case SyncMutation::kShiftLater: return "shift-later";
  }
  return "?";
}

std::vector<SyncSite> ListSyncSites(const Stmt& program) {
  std::vector<SyncSite> sites;
  Collect(program, &sites);
  return sites;
}

Stmt MutateSyncSite(const Stmt& program, size_t site_index,
                    SyncMutation mutation) {
  Rewriter rewriter(site_index, mutation, 0, /*set_wait_ahead=*/false);
  Stmt result = rewriter.Rewrite(program);
  return rewriter.ok() ? result : nullptr;
}

Stmt SetWaitAhead(const Stmt& program, size_t site_index, int wait_ahead) {
  Rewriter rewriter(site_index, SyncMutation::kDrop, wait_ahead,
                    /*set_wait_ahead=*/true);
  Stmt result = rewriter.Rewrite(program);
  return rewriter.ok() ? result : nullptr;
}

}  // namespace verify
}  // namespace alcop
