#include "sim/compile.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "support/check.h"

namespace alcop {
namespace sim {

using namespace alcop::ir;  // NOLINT(build/namespaces) - compiler

namespace {

// Mirrors the trace builder's walk (trace.cc): same loop flattening, same
// warp-range broadcast, same byte splitting — but emits pre-resolved
// micro-ops instead of AST-shaped events.
class MicroOpCompiler {
 public:
  MicroOpCompiler(int num_warps, const target::GpuSpec& spec,
                  const TraceCompileOptions& options)
      : spec_(spec), options_(options) {
    skeleton_.num_warps = num_warps;
    skeleton_.groups = options.groups;
    skeleton_.blocking_async = options.blocking_async;
    program_.sync_overhead_cycles = spec.sync_overhead_cycles;
    program_.half_sync_overhead_cycles = spec.sync_overhead_cycles * 0.5;
    // The same rate expressions the interpreter's servers are built with.
    tc_rate_ = spec.tc_flops_per_sm_per_cycle / 4.0;
    lds_rate_ = spec.lds_bytes_per_cycle_per_sm /
                (options.swizzle ? 1.0 : spec.bank_conflict_factor);
    warps_.resize(static_cast<size_t>(num_warps));
  }

  MicroOpProgram Compile(const Stmt& program) {
    Walk(program);
    // Flatten the per-warp streams into one contiguous arena.
    size_t total = 0;
    for (const std::vector<MicroOp>& warp : warps_) total += warp.size();
    skeleton_.ops.reserve(total);
    skeleton_.warp_begin.reserve(warps_.size() + 1);
    skeleton_.warp_begin.push_back(0);
    for (std::vector<MicroOp>& warp : warps_) {
      skeleton_.ops.insert(skeleton_.ops.end(), warp.begin(), warp.end());
      skeleton_.warp_begin.push_back(
          static_cast<uint32_t>(skeleton_.ops.size()));
    }
    // Per-group commit counts (max over warps) size the replay arena's
    // group slots exactly, so a run never grows them.
    for (size_t w = 0; w < warps_.size(); ++w) {
      std::vector<int64_t> commits(skeleton_.groups.size(), 0);
      for (const MicroOp& op : warps_[w]) {
        if (op.kind == MicroOpKind::kCommit) {
          ++commits[static_cast<size_t>(op.group)];
        }
      }
      for (size_t g = 0; g < commits.size(); ++g) {
        skeleton_.groups[g].max_commits =
            std::max(skeleton_.groups[g].max_commits, commits[g]);
      }
    }
    // Bake each wait's commit capacity next to its wait_ahead so the
    // replay core never touches the group table.
    for (MicroOp& op : skeleton_.ops) {
      if (op.kind != MicroOpKind::kWait) continue;
      const int64_t cap =
          skeleton_.groups[static_cast<size_t>(op.group)].max_commits;
      ALCOP_CHECK_LT(cap, int64_t{1} << 22) << "commit count overflows aux";
      op.aux = static_cast<int32_t>(cap << 8) | (op.aux & 0xff);
    }
    // Structure sharing: configs that walked an identical instruction
    // sequence (only the pool values differ) get the same skeleton object
    // from the process-wide pool.
    skeleton_.hash = SkeletonHash(skeleton_);
    program_.skeleton = InternSkeleton(std::move(skeleton_));
    return std::move(program_);
  }

 private:
  struct WarpRange {
    int begin;
    int end;  // exclusive
    int Count() const { return end - begin; }
  };

  WarpRange CurrentWarps() const {
    int prod = 1;
    int fold = 0;
    for (const auto& [extent, value] : warp_stack_) {
      prod *= static_cast<int>(extent);
      fold = fold * static_cast<int>(extent) + static_cast<int>(value);
    }
    ALCOP_CHECK_EQ(skeleton_.num_warps % prod, 0)
        << "warp loop nest does not evenly cover the threadblock's warps";
    int span = skeleton_.num_warps / prod;
    return {fold * span, (fold + 1) * span};
  }

  void Emit(const MicroOp& op) {
    WarpRange range = CurrentWarps();
    for (int w = range.begin; w < range.end; ++w) {
      warps_[static_cast<size_t>(w)].push_back(op);
    }
  }

  // Splits the payload over the addressed warps exactly as the trace
  // builder does (integer division), returning the per-warp byte count.
  int64_t SplitBytes(int64_t bytes) const {
    int count = CurrentWarps().Count();
    return count > 1 ? bytes / count : bytes;
  }

  double DramFractionOf(const BufferNode* tensor) const {
    auto it = options_.dram_fraction.find(tensor);
    return it != options_.dram_fraction.end() ? it->second : 1.0;
  }

  // Interns an operand row, keyed by exact bit pattern (identical values
  // must share a row; nothing may be merged across rounding differences).
  int32_t Intern(const MicroOpOperands& v) {
    std::array<uint64_t, 5> key;
    static_assert(sizeof(key) == sizeof(v), "pool rows are five doubles");
    std::memcpy(key.data(), &v, sizeof(v));
    auto [it, inserted] =
        pool_index_.emplace(key, static_cast<int32_t>(program_.pool.size()));
    if (inserted) program_.pool.push_back(v);
    return it->second;
  }

  void Walk(const Stmt& s) {
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
          if (is_warp) warp_stack_.emplace_back(extent, i);
          Walk(op->body);
          if (is_warp) warp_stack_.pop_back();
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
      case StmtKind::kCopy:
        WalkCopy(static_cast<const CopyNode*>(s.get()));
        return;
      case StmtKind::kFill: {
        const auto* op = static_cast<const FillNode*>(s.get());
        MicroOp out;
        out.kind = MicroOpKind::kFill;
        MicroOpOperands v;
        v.op0 = static_cast<double>(op->dst.NumBytes()) / 256.0;
        out.aux = Intern(v);
        Emit(out);
        return;
      }
      case StmtKind::kMma: {
        const auto* op = static_cast<const MmaNode*>(s.get());
        MicroOp out;
        out.kind = MicroOpKind::kMma;
        MicroOpOperands v;
        v.op0 = static_cast<double>(op->Flops()) / tc_rate_;
        v.payload = static_cast<double>(op->Flops());
        out.aux = Intern(v);
        Emit(out);
        return;
      }
      case StmtKind::kSync: {
        const auto* op = static_cast<const SyncNode*>(s.get());
        MicroOp out;
        out.group = static_cast<int16_t>(op->group);
        switch (op->sync_kind) {
          case SyncKind::kBarrier:
            out.kind = MicroOpKind::kBarrier;
            break;
          case SyncKind::kProducerAcquire:
            out.kind = MicroOpKind::kAcquire;
            out.aux = static_cast<int32_t>(
                          skeleton_.groups[static_cast<size_t>(op->group)]
                              .stages) -
                      1;
            break;
          case SyncKind::kProducerCommit:
            out.kind = MicroOpKind::kCommit;
            break;
          case SyncKind::kConsumerWait:
            out.kind = MicroOpKind::kWait;
            ALCOP_CHECK_GE(op->wait_ahead, 0);
            ALCOP_CHECK_LT(op->wait_ahead, 256)
                << "wait_ahead must fit the packed aux byte";
            out.aux = op->wait_ahead;
            break;
          case SyncKind::kConsumerRelease:
            out.kind = MicroOpKind::kRelease;
            break;
        }
        if (out.kind != MicroOpKind::kBarrier) {
          ALCOP_CHECK_GE(op->group, 0) << "pipeline sync without a group";
          ALCOP_CHECK_LT(static_cast<size_t>(op->group),
                         skeleton_.groups.size())
              << "pipeline group ids must be dense";
        }
        Emit(out);
        return;
      }
    }
    ALCOP_CHECK(false) << "unhandled statement in micro-op compiler";
  }

  void WalkCopy(const CopyNode* op) {
    MemScope src = op->src.buffer->scope;
    MemScope dst = op->dst.buffer->scope;
    if (src == MemScope::kGlobal && dst == MemScope::kGlobal) {
      return;  // standalone elementwise pass, charged at launch level
    }
    MicroOp out;
    MicroOpOperands v;
    if (dst == MemScope::kGlobal) {
      int64_t bytes = SplitBytes(op->dst.NumBytes());
      out.kind = MicroOpKind::kStoreGlobal;
      v.op0 = static_cast<double>(bytes) / spec_.copy_issue_bytes_per_cycle;
      v.op1 = static_cast<double>(bytes);
      v.op2 = spec_.dram_latency_cycles;
      v.payload = static_cast<double>(bytes);
      out.aux = Intern(v);
      Emit(out);
      return;
    }
    int64_t bytes =
        SplitBytes(op->src.NumElements() * op->dst.buffer->elem_bytes);
    if (op->is_async) {
      ALCOP_CHECK_GE(op->pipeline_group, 0)
          << "async copy without a pipeline group";
      ALCOP_CHECK_LT(static_cast<size_t>(op->pipeline_group),
                     skeleton_.groups.size())
          << "pipeline group ids must be dense";
    }
    out.group = static_cast<int16_t>(op->pipeline_group);
    v.op0 = static_cast<double>(bytes) / spec_.copy_issue_bytes_per_cycle;
    v.payload = static_cast<double>(bytes);
    if (src == MemScope::kGlobal) {
      out.kind = op->is_async ? MicroOpKind::kCopyAsyncGlobal
                              : MicroOpKind::kCopySyncGlobal;
      double fraction = DramFractionOf(op->src.buffer.get());
      v.op1 = static_cast<double>(bytes);
      v.op2 = static_cast<double>(bytes) * fraction;
      if (fraction > 1e-3) out.flags |= kMicroOpHasDram;
      // The interpreter's expected-value latency blend, folded per op.
      v.op3 = spec_.llc_latency_cycles +
              std::min(fraction, 1.0) *
                  (spec_.dram_latency_cycles - spec_.llc_latency_cycles);
    } else {
      out.kind = op->is_async ? MicroOpKind::kCopyAsyncShared
                              : MicroOpKind::kCopySyncShared;
      v.op1 = static_cast<double>(bytes) / lds_rate_;
      v.op2 = spec_.smem_latency_cycles;
    }
    out.aux = Intern(v);
    Emit(out);
  }

  const target::GpuSpec& spec_;
  const TraceCompileOptions& options_;
  MicroOpProgram program_;
  MicroOpSkeleton skeleton_;
  std::map<std::array<uint64_t, 5>, int32_t> pool_index_;
  std::vector<std::vector<MicroOp>> warps_;
  double tc_rate_ = 1.0;
  double lds_rate_ = 1.0;
  std::vector<VarBinding> env_;
  std::vector<std::pair<int64_t, int64_t>> warp_stack_;  // (extent, value)
};

// ---- Skeleton intern pool ----

bool SkeletonEqual(const MicroOpSkeleton& a, const MicroOpSkeleton& b) {
  if (a.num_warps != b.num_warps || a.blocking_async != b.blocking_async ||
      a.ops.size() != b.ops.size() ||
      a.warp_begin.size() != b.warp_begin.size() ||
      a.groups.size() != b.groups.size()) {
    return false;
  }
  if (!a.ops.empty() &&
      std::memcmp(a.ops.data(), b.ops.data(),
                  a.ops.size() * sizeof(MicroOp)) != 0) {
    return false;
  }
  if (a.warp_begin != b.warp_begin) return false;
  for (size_t g = 0; g < a.groups.size(); ++g) {
    if (a.groups[g].stages != b.groups[g].stages ||
        a.groups[g].tb_scope != b.groups[g].tb_scope ||
        a.groups[g].max_commits != b.groups[g].max_commits) {
      return false;
    }
  }
  return true;
}

// One pool entry: the skeleton's address (for equality checks and for
// its deleter to find the entry) and a weak reference to hand out.
struct PoolSlot {
  const MicroOpSkeleton* skeleton;
  std::weak_ptr<const MicroOpSkeleton> ref;
};

struct SkeletonPool {
  std::mutex mu;
  // Bucketed by structural hash; equality confirmed before sharing, so a
  // hash collision costs a bucket scan, never a wrong skeleton. The pool
  // holds no ownership: a skeleton lives exactly as long as the programs
  // that reference it, and its deleter unlinks its slot.
  std::unordered_map<uint64_t, std::vector<PoolSlot>> buckets;
  SkeletonPoolStats stats;
};

SkeletonPool& GlobalSkeletonPool() {
  static SkeletonPool* pool = new SkeletonPool();  // leaked: outlives threads
  return *pool;
}

// Deleter of every interned skeleton: unlinks its slot (if a reset has
// not already dropped it), then frees it. Never runs under the pool
// mutex — InternSkeleton drops no reference while holding it.
void ReleaseSkeleton(const MicroOpSkeleton* skeleton) {
  SkeletonPool& pool = GlobalSkeletonPool();
  {
    std::lock_guard<std::mutex> lock(pool.mu);
    auto bucket = pool.buckets.find(skeleton->hash);
    if (bucket != pool.buckets.end()) {
      std::vector<PoolSlot>& slots = bucket->second;
      auto slot = std::find_if(slots.begin(), slots.end(),
                               [skeleton](const PoolSlot& s) {
                                 return s.skeleton == skeleton;
                               });
      if (slot != slots.end()) {
        slots.erase(slot);
        --pool.stats.skeletons;
        pool.stats.bytes -= static_cast<uint64_t>(skeleton->MemoryBytes());
        if (slots.empty()) pool.buckets.erase(bucket);
      }
    }
  }
  delete skeleton;
}

}  // namespace

uint64_t SkeletonHash(const MicroOpSkeleton& skeleton) {
  // FNV-1a over the structural fields, bytewise for the POD instruction
  // arena.
  uint64_t h = 1469598103934665603ull;
  auto mix_bytes = [&h](const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  auto mix_u64 = [&mix_bytes](uint64_t v) { mix_bytes(&v, sizeof(v)); };
  mix_u64(static_cast<uint64_t>(skeleton.num_warps));
  mix_u64(skeleton.blocking_async ? 1 : 0);
  mix_bytes(skeleton.ops.data(), skeleton.ops.size() * sizeof(MicroOp));
  mix_bytes(skeleton.warp_begin.data(),
            skeleton.warp_begin.size() * sizeof(uint32_t));
  for (const MicroOpGroup& g : skeleton.groups) {
    mix_u64(static_cast<uint64_t>(g.stages));
    mix_u64(g.tb_scope ? 1 : 0);
    mix_u64(static_cast<uint64_t>(g.max_commits));
  }
  return h;
}

std::shared_ptr<const MicroOpSkeleton> InternSkeleton(
    MicroOpSkeleton&& skeleton) {
  SkeletonPool& pool = GlobalSkeletonPool();
  std::lock_guard<std::mutex> lock(pool.mu);
  ++pool.stats.interns;
  std::vector<PoolSlot>& slots = pool.buckets[skeleton.hash];
  for (const PoolSlot& slot : slots) {
    // A slot's skeleton is not freed before its deleter unlinks the slot
    // under this mutex, so comparing is safe; lock() fails only when that
    // deleter is already waiting for the mutex.
    if (!SkeletonEqual(*slot.skeleton, skeleton)) continue;
    if (std::shared_ptr<const MicroOpSkeleton> existing = slot.ref.lock()) {
      ++pool.stats.shared;
      return existing;
    }
  }
  auto* owned = new MicroOpSkeleton(std::move(skeleton));
  std::shared_ptr<const MicroOpSkeleton> interned(owned, ReleaseSkeleton);
  slots.push_back({owned, interned});
  ++pool.stats.skeletons;
  pool.stats.bytes += static_cast<uint64_t>(owned->MemoryBytes());
  return interned;
}

SkeletonPoolStats GetSkeletonPoolStats() {
  SkeletonPool& pool = GlobalSkeletonPool();
  std::lock_guard<std::mutex> lock(pool.mu);
  return pool.stats;
}

void ResetSkeletonPool() {
  SkeletonPool& pool = GlobalSkeletonPool();
  std::lock_guard<std::mutex> lock(pool.mu);
  pool.buckets.clear();
  pool.stats = SkeletonPoolStats();
}

MicroOpProgram CompileTraceProgram(const ir::Stmt& program, int num_warps,
                                   const target::GpuSpec& spec,
                                   const TraceCompileOptions& options) {
  ALCOP_CHECK_GT(num_warps, 0);
  return MicroOpCompiler(num_warps, spec, options).Compile(program);
}

}  // namespace sim
}  // namespace alcop
