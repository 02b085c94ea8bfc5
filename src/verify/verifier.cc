#include "verify/verifier.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"
#include "support/check.h"
#include "verify/sync_walk.h"

namespace alcop {
namespace verify {

using namespace alcop::ir;  // NOLINT(build/namespaces) - interpreter

namespace {

// Abstract state of one buffer slot (one index along the leading stage
// dimension): whether an async copy's data is still invisible (pending),
// an epoch counter to detect overwrites between commit and wait, and the
// commit-group index of the last async writer.
struct SlotState {
  bool pending = false;
  uint32_t epoch = 0;
  int64_t writer_group = -1;
  int writer_pipeline = -1;
};

// One slot written by an in-flight commit group (the slot-granular twin of
// the executor's PendingElem).
struct SlotRef {
  const BufferNode* buffer;
  int64_t slot;
  uint32_t epoch;
};

// Tracks in-flight async writes by stage slot, and owns every V-code.
class SlotTracker : public SyncWalk<SlotTracker, SlotRef> {
 public:
  using SyncWalk::SyncWalk;

  void Check(const CopyNode* op) {
    CheckRegionBounds(op, op->dst);
    CheckRegionBounds(op, op->src);
    CheckCopyScopes(op);
  }
  void Check(const FillNode* op) { CheckRegionBounds(op, op->dst); }
  void Check(const MmaNode* op) {
    CheckRegionBounds(op, op->c);
    CheckRegionBounds(op, op->a);
    CheckRegionBounds(op, op->b);
  }

  // Race check for a read of `region`: its stage slot must not hold
  // unpromoted async data (the executor's ReadElem pending check).
  void Read(const StmtNode* site, const BufferRegion& region) {
    int64_t index = 0;
    SlotState* slot = FindSlot(site, region, &index);
    if (slot == nullptr || !slot->pending) return;
    std::ostringstream msg;
    msg << "read of '" << region.buffer->name << "' slot " << index
        << " before its consumer_wait (async data not yet visible)";
    Diagnostic* diag = Emit(site, Severity::kError, "V001", msg.str());
    if (diag != nullptr) {
      std::ostringstream note;
      note << "slot written by the async copy of commit group "
           << slot->writer_group << " of pipeline group "
           << slot->writer_pipeline;
      diag->notes.push_back(note.str());
    }
  }

  // A synchronous write makes its destination slot visible immediately
  // (mirrors the executor clearing the pending flag).
  void Overwrite(const StmtNode* site, const BufferRegion& region) {
    int64_t index = 0;
    SlotState* slot = FindSlot(site, region, &index);
    if (slot != nullptr) slot->pending = false;
  }

  bool AsyncWrite(const CopyNode* op, int64_t group, SlotRef* write) {
    int64_t index = 0;
    if (op->dst.offsets.empty() || !Eval(op->dst.offsets[0], op, &index)) {
      return false;
    }
    SlotState& slot = slots_[op->dst.buffer.get()][index];
    if (slot.pending && slot.writer_group >= 0 &&
        slot.writer_group != group) {
      std::ostringstream msg;
      msg << "async copy overwrites '" << op->dst.buffer->name << "' slot "
          << index << " while commit group " << slot.writer_group
          << " still owns it (two live groups alias one slot; wrong "
             "rolling index?)";
      Emit(op, Severity::kWarning, "V005", msg.str());
    }
    slot.pending = true;
    slot.writer_group = group;
    slot.writer_pipeline = op->pipeline_group;
    ++slot.epoch;
    *write = {op->dst.buffer.get(), index, slot.epoch};
    return true;
  }

  // Promotes the slot only if no later async copy overwrote it.
  void Promote(const SlotRef& ref) {
    SlotState& slot = slots_[ref.buffer][ref.slot];
    if (slot.epoch == ref.epoch) slot.pending = false;
  }

  void Malformed(const StmtNode* site, const std::string& message) {
    Emit(site, Severity::kError, "V009", message);
  }

  void Barrier(const SyncNode* op) {
    if (warp_depth_ == 0) return;
    Emit(op, Severity::kError, "V008",
         "threadblock barrier inside a divergent warp loop (deadlocks: "
         "warps reach the barrier a different number of times)");
  }

  void Acquire(const SyncNode* op, int64_t live) {
    int64_t stages = op->buffers[0]->shape[0];
    if (live < stages) return;
    std::ostringstream msg;
    msg << "producer_acquire of group " << op->group
        << " without pipeline capacity: " << live << " groups live in a "
        << stages << "-stage FIFO (missing consumer_release?)";
    Emit(op, Severity::kError, "V002", msg.str());
  }

  void WaitPastCommitted(const SyncNode* op, int64_t target,
                         int64_t committed) {
    std::ostringstream msg;
    msg << "consumer_wait of group " << op->group << " targets group "
        << target << " but only " << committed << " groups were committed";
    Emit(op, Severity::kError, "V003", msg.str());
  }

  void ReleasePastCommitted(const SyncNode* op, int64_t committed) {
    std::ostringstream msg;
    msg << "consumer_release of group " << op->group
        << " exceeds committed groups (" << committed + 1 << " > "
        << committed << ")";
    Emit(op, Severity::kError, "V004", msg.str());
  }

 private:
  // The slot `region` starts in (its index in `*index`), or nullptr when
  // no async copy ever wrote it. An unevaluable offset was already
  // reported by Check, which runs first.
  SlotState* FindSlot(const StmtNode* site, const BufferRegion& region,
                      int64_t* index) {
    auto it = slots_.find(region.buffer.get());
    if (it == slots_.end() || region.offsets.empty() ||
        !Eval(region.offsets[0], site, index)) {
      return nullptr;
    }
    auto slot_it = it->second.find(*index);
    return slot_it == it->second.end() ? nullptr : &slot_it->second;
  }

  // Bounds-checks a region at the corners of every in-scope parallel
  // loop. Serial loop variables hold their current (real) values, so
  // modulo/rolling arithmetic over them is evaluated exactly; parallel
  // variables only ever enter lowered offsets affinely (tile bases), so
  // their extremes occur at {0, extent-1}.
  void CheckRegionBounds(const StmtNode* site, const BufferRegion& region) {
    try {
      ValidateRegion(region);
    } catch (const CheckError& error) {
      Malformed(site, std::string("malformed region: ") + error.what());
      return;
    }

    std::vector<size_t> corner_vars;
    for (size_t i = 0; i < parallel_.size(); ++i) {
      if (parallel_[i].extent > 1) corner_vars.push_back(i);
    }
    // 2^12 corner combinations is already far beyond any real loop nest;
    // beyond that fall back to the representative instance only.
    if (corner_vars.size() > 12) corner_vars.clear();

    for (size_t d = 0; d < region.offsets.size(); ++d) {
      int64_t lo = 0, hi = 0;
      bool first = true;
      size_t combos = size_t{1} << corner_vars.size();
      for (size_t mask = 0; mask < combos; ++mask) {
        for (size_t i = 0; i < corner_vars.size(); ++i) {
          const ParallelLoop& loop = parallel_[corner_vars[i]];
          env_[loop.env_index].value =
              ((mask >> i) & 1) != 0 ? loop.extent - 1 : 0;
        }
        int64_t value = 0;
        bool ok = Eval(region.offsets[d], site, &value);
        if (!ok) break;
        lo = first ? value : std::min(lo, value);
        hi = first ? value : std::max(hi, value);
        first = false;
      }
      for (size_t i = 0; i < corner_vars.size(); ++i) {
        env_[parallel_[corner_vars[i]].env_index].value = 0;
      }
      if (first) return;  // evaluation failed; V009 already reported
      if (lo < 0 || hi + region.sizes[d] > region.buffer->shape[d]) {
        std::ostringstream msg;
        msg << "region of '" << region.buffer->name << "' out of bounds in dim "
            << d << ": offset range [" << lo << ", " << hi << "] with size "
            << region.sizes[d] << " exceeds extent "
            << region.buffer->shape[d];
        Emit(site, Severity::kError, "V006", msg.str());
      }
    }
  }

  void CheckCopyScopes(const CopyNode* op) {
    MemScope src = op->src.buffer->scope;
    MemScope dst = op->dst.buffer->scope;
    if (src == MemScope::kGlobal &&
        (dst == MemScope::kRegister || dst == MemScope::kAccumulator)) {
      Emit(op, Severity::kError, "V007",
           "copy '" + op->src.buffer->name + "' -> '" + op->dst.buffer->name +
               "' moves Global data straight into registers, skipping the "
               "shared-memory staging level");
      return;
    }
    if (!op->is_async) return;
    bool global_to_shared =
        src == MemScope::kGlobal && dst == MemScope::kShared;
    bool shared_to_register =
        src == MemScope::kShared && dst == MemScope::kRegister;
    if (global_to_shared && op->op != EwiseOp::kNone) {
      Emit(op, Severity::kError, "V007",
           "async Global->Shared copy into '" + op->dst.buffer->name +
               "' applies elementwise op '" + EwiseOpName(op->op) +
               "' (cp.async has no ALU; fused copies must stay "
               "synchronous)");
    } else if (!global_to_shared && !shared_to_register) {
      Emit(op, Severity::kError, "V007",
           std::string("async copy between ") + MemScopeName(src) + " and " +
               MemScopeName(dst) +
               " scopes is not asynchronous on any target generation");
    }
  }

  std::unordered_map<const BufferNode*, std::map<int64_t, SlotState>> slots_;
};

}  // namespace

bool VerifyResult::HasErrors() const {
  for (const Diagnostic& diag : diagnostics) {
    if (diag.severity == Severity::kError) return true;
  }
  return false;
}

bool VerifyResult::HasSyncError() const {
  for (const Diagnostic& diag : diagnostics) {
    if (diag.severity != Severity::kError) continue;
    if (diag.code == "V001" || diag.code == "V002" || diag.code == "V003" ||
        diag.code == "V004") {
      return true;
    }
  }
  return false;
}

std::string VerifyResult::Render() const {
  std::ostringstream out;
  for (const Diagnostic& diag : diagnostics) {
    out << diag.Render() << "\n";
  }
  if (reached_step_limit) out << kStepLimitNote << "\n";
  return out.str();
}

VerifyResult VerifyProgram(const ir::Stmt& program) {
  ALCOP_TRACE_SCOPE("verify", "compiler");
  DiagnosticEngine engine;
  SlotTracker tracker(&engine);
  tracker.Run(program);
  VerifyResult result;
  result.diagnostics = engine.diagnostics();
  SortDiagnostics(&result.diagnostics);
  result.reached_step_limit = tracker.reached_step_limit();
  return result;
}

bool VerificationEnabled() {
  static const bool enabled = [] {
    const char* value = std::getenv("ALCOP_VERIFY");
    return value != nullptr && value[0] != '\0' &&
           std::string(value) != "0";
  }();
  return enabled;
}

void VerifyOrThrow(const ir::Stmt& program, const char* producer) {
  VerifyResult result = VerifyProgram(program);
  ALCOP_CHECK(!result.HasErrors() && !result.reached_step_limit)
      << producer << " produced IR that "
      << (result.HasErrors() ? "fails static verification"
                             : "could not be verified within the step budget")
      << ":\n"
      << result.Render();
}

void VerifyOrThrowIfEnabled(const ir::Stmt& program, const char* producer) {
  if (VerificationEnabled()) VerifyOrThrow(program, producer);
}

}  // namespace verify
}  // namespace alcop
