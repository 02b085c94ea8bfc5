#include "sim/compile.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <utility>

#include "sim/trace.h"
#include "support/check.h"

namespace alcop {
namespace sim {

using namespace alcop::ir;  // NOLINT(build/namespaces) - compiler

namespace {

constexpr const char* kTooManyOps = "micro-op program exceeds 2^32 ops";

void CheckDenseGroup(int group, size_t groups) {
  ALCOP_CHECK_GE(group, 0) << "async copy or pipeline sync without a group";
  ALCOP_CHECK_LT(static_cast<size_t>(group), groups)
      << "pipeline group ids must be dense";
}

// The first walk: each warp's op count and per-group commit count, one
// row per warp, so a run repeats every count with one loop.
class OpCounter {
 public:
  OpCounter(int num_warps, size_t groups)
      : row_(groups + 1),
        counts_(static_cast<size_t>(num_warps) * row_, 0) {}

  void operator()(const TraceEvent& event, WarpRange warps) {
    const bool commit = event.kind == EventKind::kCommit;
    if (commit) CheckDenseGroup(event.group, row_ - 1);
    for (int w = warps.begin; w < warps.end; ++w) {
      int64_t* row = &counts_[static_cast<size_t>(w) * row_];
      ++row[0];
      if (commit) ++row[1 + event.group];
    }
  }
  std::vector<int64_t> Mark() const { return counts_; }
  void Repeat(const std::vector<int64_t>& mark, int64_t times) {
    for (size_t i = 0; i < counts_.size(); ++i) {
      int64_t added = 0;
      ALCOP_CHECK(!__builtin_mul_overflow(counts_[i] - mark[i], times, &added) &&
                  !__builtin_add_overflow(counts_[i], added, &counts_[i]) &&
                  counts_[i] <= int64_t{UINT32_MAX})
          << kTooManyOps;
    }
  }

  int64_t Ops(size_t warp) const { return counts_[warp * row_]; }
  int64_t Commits(size_t warp, size_t group) const {
    return counts_[warp * row_ + 1 + group];
  }

 private:
  size_t row_;
  std::vector<int64_t> counts_;
};

// Turns the events of the shared threadblock walk (trace.h) into
// pre-resolved micro-ops. A first walk counts every warp's ops and
// commits, so the second writes each op once, straight into its warp's
// slice of the final arena, with each wait's commit capacity already
// known; a run of identical loop iterations is walked once and copied.
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
  }

  MicroOpProgram Compile(const Stmt& program) {
    const size_t warps = static_cast<size_t>(program_.num_warps);
    OpCounter counter(program_.num_warps, program_.groups.size());
    WalkThreadblock(program, program_.num_warps, counter);
    // Per-group commit counts (max over warps) size the replay arena's
    // group slots exactly, so a run never grows them.
    program_.warp_begin.reserve(warps + 1);
    program_.warp_begin.push_back(0);
    int64_t total = 0;
    for (size_t w = 0; w < warps; ++w) {
      for (size_t g = 0; g < program_.groups.size(); ++g) {
        program_.groups[g].max_commits =
            std::max(program_.groups[g].max_commits, counter.Commits(w, g));
      }
      total += counter.Ops(w);
      ALCOP_CHECK_LE(total, int64_t{UINT32_MAX}) << kTooManyOps;
      program_.warp_begin.push_back(static_cast<uint32_t>(total));
    }
    program_.ops.resize(static_cast<size_t>(total));
    cursor_.assign(program_.warp_begin.begin(), program_.warp_begin.end() - 1);
    WalkThreadblock(program, program_.num_warps, *this);
    for (size_t w = 0; w < warps; ++w) {
      ALCOP_CHECK_EQ(cursor_[w], program_.warp_begin[w + 1])
          << "the counting and emitting walks disagree";
    }
    return std::move(program_);
  }

  // The second walk's leaf handler.
  void operator()(const TraceEvent& event, WarpRange warps) {
    const MicroOp op = Translate(event);
    for (int w = warps.begin; w < warps.end; ++w) {
      uint32_t& at = cursor_[static_cast<size_t>(w)];
      ALCOP_CHECK_LT(at, program_.warp_begin[static_cast<size_t>(w) + 1]);
      program_.ops[at++] = op;
    }
  }
  std::vector<uint32_t> Mark() const { return cursor_; }
  // Copies each warp's ops since `mark` `times` more times, doubling the
  // copied span each step.
  void Repeat(const std::vector<uint32_t>& mark, int64_t times) {
    for (size_t w = 0; w < cursor_.size(); ++w) {
      const size_t once = cursor_[w] - mark[w];
      const size_t all = once * static_cast<size_t>(times + 1);
      ALCOP_CHECK_LE(mark[w] + all, program_.warp_begin[w + 1]);
      MicroOp* run = program_.ops.data() + mark[w];
      for (size_t done = once; done < all;) {
        const size_t chunk = std::min(done, all - done);
        std::memcpy(run + done, run, chunk * sizeof(MicroOp));
        done += chunk;
      }
      cursor_[w] = static_cast<uint32_t>(mark[w] + all);
    }
  }

 private:
  double DramFractionOf(const BufferNode* tensor) const {
    auto it = options_.dram_fraction.find(tensor);
    return it != options_.dram_fraction.end() ? it->second : 1.0;
  }

  // Interns an operand row, keyed by exact bit pattern (identical values
  // must share a row; nothing may be merged across rounding differences).
  int32_t Intern(const MicroOpOperands& v) {
    std::array<uint64_t, 4> key;
    static_assert(sizeof(key) == sizeof(v), "pool rows are four doubles");
    std::memcpy(key.data(), &v, sizeof(v));
    auto [it, inserted] =
        pool_index_.emplace(key, static_cast<int32_t>(program_.pool.size()));
    if (inserted) program_.pool.push_back(v);
    return it->second;
  }

  void CheckGroup(int group) const {
    CheckDenseGroup(group, program_.groups.size());
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
        break;
      case EventKind::kStoreGlobal:
        out.kind = MicroOpKind::kStoreGlobal;
        v.op0 = bytes / spec_.copy_issue_bytes_per_cycle;
        v.op1 = bytes;
        v.op2 = spec_.dram_latency_cycles;
        break;
      case EventKind::kCopyAsync:
      case EventKind::kCopySync: {
        const bool async = e.kind == EventKind::kCopyAsync;
        if (async) CheckGroup(e.group);
        v.op0 = bytes / spec_.copy_issue_bytes_per_cycle;
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
      case EventKind::kWait: {
        CheckGroup(e.group);
        out.kind = MicroOpKind::kWait;
        ALCOP_CHECK_GE(e.wait_ahead, 0);
        ALCOP_CHECK_LT(e.wait_ahead, 256)
            << "wait_ahead must fit the packed aux byte";
        // The group's commit capacity rides next to wait_ahead so the
        // replay core never touches the group table.
        const int64_t cap =
            program_.groups[static_cast<size_t>(e.group)].max_commits;
        ALCOP_CHECK_LT(cap, int64_t{1} << 22) << "commit count overflows aux";
        out.aux = static_cast<int32_t>(cap << 8) | e.wait_ahead;
        return out;
      }
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
  std::map<std::array<uint64_t, 4>, int32_t> pool_index_;
  std::vector<uint32_t> cursor_;  // next op of each warp in program_.ops
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
