#include "sim/compile.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <utility>

#include "sim/trace.h"
#include "support/check.h"

namespace alcop {
namespace sim {

using namespace alcop::ir;  // NOLINT(build/namespaces) - compiler

namespace {

// Turns the events of the shared threadblock walk (trace.h) into
// pre-resolved micro-ops, one per-warp stream each.
class MicroOpCompiler {
 public:
  MicroOpCompiler(int num_warps, const target::GpuSpec& spec,
                  const TraceCompileOptions& options)
      : spec_(spec), options_(options) {
    program_.num_warps = num_warps;
    program_.groups = options.groups;
    program_.blocking_async = options.blocking_async;
    program_.sync_overhead_cycles = spec.sync_overhead_cycles;
    program_.half_sync_overhead_cycles = spec.sync_overhead_cycles * 0.5;
    // The same rate expressions the interpreter's servers are built with.
    tc_rate_ = spec.tc_flops_per_sm_per_cycle / 4.0;
    lds_rate_ = spec.lds_bytes_per_cycle_per_sm /
                (options.swizzle ? 1.0 : spec.bank_conflict_factor);
    warps_.resize(static_cast<size_t>(num_warps));
  }

  MicroOpProgram Compile(const Stmt& program) {
    WalkThreadblock(program, program_.num_warps,
                    [this](const TraceEvent& event, WarpRange warps) {
                      MicroOp op = Translate(event);
                      for (int w = warps.begin; w < warps.end; ++w) {
                        warps_[static_cast<size_t>(w)].push_back(op);
                      }
                    });
    // Flatten the per-warp streams into one contiguous arena.
    size_t total = 0;
    for (const std::vector<MicroOp>& warp : warps_) total += warp.size();
    program_.ops.reserve(total);
    program_.warp_begin.reserve(warps_.size() + 1);
    program_.warp_begin.push_back(0);
    for (std::vector<MicroOp>& warp : warps_) {
      program_.ops.insert(program_.ops.end(), warp.begin(), warp.end());
      program_.warp_begin.push_back(
          static_cast<uint32_t>(program_.ops.size()));
    }
    // Per-group commit counts (max over warps) size the replay arena's
    // group slots exactly, so a run never grows them.
    for (size_t w = 0; w < warps_.size(); ++w) {
      std::vector<int64_t> commits(program_.groups.size(), 0);
      for (const MicroOp& op : warps_[w]) {
        if (op.kind == MicroOpKind::kCommit) {
          ++commits[static_cast<size_t>(op.group)];
        }
      }
      for (size_t g = 0; g < commits.size(); ++g) {
        program_.groups[g].max_commits =
            std::max(program_.groups[g].max_commits, commits[g]);
      }
    }
    // Bake each wait's commit capacity next to its wait_ahead so the
    // replay core never touches the group table.
    for (MicroOp& op : program_.ops) {
      if (op.kind != MicroOpKind::kWait) continue;
      const int64_t cap =
          program_.groups[static_cast<size_t>(op.group)].max_commits;
      ALCOP_CHECK_LT(cap, int64_t{1} << 22) << "commit count overflows aux";
      op.aux = static_cast<int32_t>(cap << 8) | (op.aux & 0xff);
    }
    return std::move(program_);
  }

 private:
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

  void CheckGroup(int group) const {
    ALCOP_CHECK_GE(group, 0) << "async copy or pipeline sync without a group";
    ALCOP_CHECK_LT(static_cast<size_t>(group), program_.groups.size())
        << "pipeline group ids must be dense";
  }

  MicroOp Translate(const TraceEvent& e) {
    MicroOp out;
    out.group = static_cast<int16_t>(e.group);
    MicroOpOperands v;
    const double bytes = static_cast<double>(e.bytes);
    switch (e.kind) {
      case EventKind::kFill:
        out.kind = MicroOpKind::kFill;
        v.op0 = bytes / 256.0;
        break;
      case EventKind::kMma:
        out.kind = MicroOpKind::kMma;
        v.op0 = static_cast<double>(e.flops) / tc_rate_;
        v.payload = static_cast<double>(e.flops);
        break;
      case EventKind::kStoreGlobal:
        out.kind = MicroOpKind::kStoreGlobal;
        v.op0 = bytes / spec_.copy_issue_bytes_per_cycle;
        v.op1 = bytes;
        v.op2 = spec_.dram_latency_cycles;
        v.payload = bytes;
        break;
      case EventKind::kCopyAsync:
      case EventKind::kCopySync: {
        const bool async = e.kind == EventKind::kCopyAsync;
        if (async) CheckGroup(e.group);
        v.op0 = bytes / spec_.copy_issue_bytes_per_cycle;
        v.payload = bytes;
        if (e.src_scope == MemScope::kGlobal) {
          out.kind = async ? MicroOpKind::kCopyAsyncGlobal
                           : MicroOpKind::kCopySyncGlobal;
          double fraction = DramFractionOf(e.src_tensor);
          v.op1 = bytes;
          v.op2 = bytes * fraction;
          if (fraction > 1e-3) out.flags |= kMicroOpHasDram;
          // The interpreter's expected-value latency blend, folded per op.
          v.op3 = spec_.llc_latency_cycles +
                  std::min(fraction, 1.0) *
                      (spec_.dram_latency_cycles - spec_.llc_latency_cycles);
        } else {
          out.kind = async ? MicroOpKind::kCopyAsyncShared
                           : MicroOpKind::kCopySyncShared;
          v.op1 = bytes / lds_rate_;
          v.op2 = spec_.smem_latency_cycles;
        }
        break;
      }
      case EventKind::kBarrier:
        out.kind = MicroOpKind::kBarrier;
        return out;
      case EventKind::kAcquire:
        CheckGroup(e.group);
        out.kind = MicroOpKind::kAcquire;
        out.aux = static_cast<int32_t>(
                      program_.groups[static_cast<size_t>(e.group)].stages) -
                  1;
        return out;
      case EventKind::kCommit:
        CheckGroup(e.group);
        out.kind = MicroOpKind::kCommit;
        return out;
      case EventKind::kWait:
        CheckGroup(e.group);
        out.kind = MicroOpKind::kWait;
        ALCOP_CHECK_GE(e.wait_ahead, 0);
        ALCOP_CHECK_LT(e.wait_ahead, 256)
            << "wait_ahead must fit the packed aux byte";
        out.aux = e.wait_ahead;
        return out;
      case EventKind::kRelease:
        CheckGroup(e.group);
        out.kind = MicroOpKind::kRelease;
        return out;
    }
    out.aux = Intern(v);
    return out;
  }

  const target::GpuSpec& spec_;
  const TraceCompileOptions& options_;
  MicroOpProgram program_;
  std::map<std::array<uint64_t, 5>, int32_t> pool_index_;
  std::vector<std::vector<MicroOp>> warps_;
  double tc_rate_ = 1.0;
  double lds_rate_ = 1.0;
};

}  // namespace

MicroOpProgram CompileTraceProgram(const ir::Stmt& program, int num_warps,
                                   const target::GpuSpec& spec,
                                   const TraceCompileOptions& options) {
  ALCOP_CHECK_GT(num_warps, 0);
  return MicroOpCompiler(num_warps, spec, options).Compile(program);
}

}  // namespace sim
}  // namespace alcop
