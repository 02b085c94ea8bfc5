// Trace compiler: lowers a pipelined TIR kernel into a flat bytecode
// program of micro-ops, so the expensive IR walk is paid once per schedule
// and the event-pool simulator core (desim.h) can replay the flat form
// thousands of times.
//
// The compiler walks the transformed TIR exactly like the per-warp trace
// builder (trace.h) — same loop flattening, same warp-range broadcast,
// same byte splitting — but instead of AST-shaped events it emits
// contiguous MicroOp structs whose operands are *pre-resolved*:
//   - copy issue cycles, LDS service cycles, tensor-core cycles and fill
//     cycles are divided out against the device rates at compile time
//     (those rates do not depend on which threadblock wave is replayed);
//   - the DRAM fraction of each global tensor (from the launch-level
//     working-set analysis) is folded into per-op byte amounts and a
//     pre-blended round-trip latency, eliminating the per-event hash-map
//     lookup the interpreter pays;
//   - per-group commit counts are counted, so the replay arena can be
//     sized exactly with no growth during a run.
// Only the LLC/DRAM bandwidth divisions remain at replay time, because
// those rates depend on how many SMs the wave keeps active.
//
// Every precomputed operand is produced by the *same* floating-point
// expression the interpreter evaluates per event, which is what makes the
// replayed KernelTiming and Timeline bit-identical to the AST interpreter
// (asserted by tests/sim_replay_test.cc and the fuzz differential).
#ifndef ALCOP_SIM_COMPILE_H_
#define ALCOP_SIM_COMPILE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ir/stmt.h"
#include "target/gpu_spec.h"

namespace alcop {
namespace sim {

// Kind order is load-bearing: every kind >= kFill is *eagerly
// continuable* — executing it during the previous event's turn (ahead of
// queued events with earlier timestamps) provably cannot change any
// result, so the replay core runs it inline with zero event-queue
// traffic. kFill only touches its own stream; kCommit only monotonic
// per-slot max/count state (and a parked waiter woken by a commit
// resumes at max(park_time, complete) + sync — exactly the time it
// would have computed passing through); kWait's park-then-wake equals
// its pass-through for the same reason; kBarrier arrival order is
// absorbed by the max over arrival times. kAcquire and kRelease are NOT
// in the set: an acquire that passes pays no max() against the release
// time, so acquire/release order against other streams is observable.
enum class MicroOpKind : uint8_t {
  kCopyAsyncGlobal,  // cp.async from global: issue now, transfer background
  kCopyAsyncShared,  // async shared->register stage copy
  kCopySyncGlobal,   // blocking global load
  kCopySyncShared,   // blocking shared->register load
  kStoreGlobal,      // epilogue write-back
  kMma,              // tensor-core work
  kAcquire,          // producer_acquire
  kRelease,          // consumer_release
  kFill,             // accumulator initialization
  kCommit,           // producer_commit
  kWait,             // consumer_wait
  kBarrier,          // threadblock barrier
};

// First kind of the eagerly-continuable suffix of the enum (see above).
inline constexpr MicroOpKind kFirstEagerKind = MicroOpKind::kFill;

// MicroOp::flags bit: the op's source tensor pays a DRAM share (fraction
// above the interpreter's 1e-3 threshold), so replay serves op2 bytes on
// the DRAM pipe in addition to the LLC.
inline constexpr uint8_t kMicroOpHasDram = 1;

// One row of a program's operand pool. Kernels use a handful of distinct
// copy shapes and tile sizes, so the operand tuples of thousands of ops
// collapse to a few interned rows — the 8-byte instruction stream stays
// small enough to be L1-resident during replay. Meaning depends on the
// instruction kind:
//   kCopy*Global:  op0 issue cycles, op1 LLC bytes, op2 DRAM bytes,
//                  op3 pre-blended round-trip latency cycles
//   kCopy*Shared:  op0 issue cycles, op1 LDS service cycles,
//                  op2 shared-memory latency cycles
//   kStoreGlobal:  op0 issue cycles, op1 store bytes, op2 DRAM latency
//   kMma:          op0 tensor-core cycles (flops / per-partition rate)
//   kFill:         op0 register-write cycles
// `payload` is the PMU quantity of the op — raw bytes moved for copies
// and stores, FLOPs for kMma, 0 otherwise. It never feeds the timing
// expressions; the counter layer (sim/pmu.h) reads it so byte and FLOP
// totals survive the operand pre-division above.
struct MicroOpOperands {
  double op0 = 0.0;
  double op1 = 0.0;
  double op2 = 0.0;
  double op3 = 0.0;
  double payload = 0.0;
};

// One flat 8-byte instruction. `aux` is the operand-pool row for the
// pooled kinds listed above; for kAcquire it is the group's stages - 1,
// and for kWait it packs (max_commits << 8) | wait_ahead — everything the
// replay core needs without touching the group table.
struct MicroOp {
  MicroOpKind kind = MicroOpKind::kBarrier;
  uint8_t flags = 0;
  int16_t group = -1;
  int32_t aux = 0;
};
static_assert(sizeof(MicroOp) == 8, "replay footprint depends on packing");

// Pipeline-group metadata carried by the program: FIFO depth, scope, and
// the per-warp commit count (sizes the replay arena's group slots).
struct MicroOpGroup {
  int64_t stages = 1;
  bool tb_scope = true;  // shared scope: every warp of the tb participates
  int64_t max_commits = 0;
};

// The *structural* half of a compiled program: instruction kinds, sync
// structure, warp spans and group metadata — everything except the
// numeric operand values, which live in the per-config patch table
// (MicroOpProgram::pool; the instructions address it by row index).
// Schedules that differ only numerically (tile bytes, FLOP counts,
// latencies) walk identical instruction sequences, so their skeletons are
// byte-for-byte equal and the process-wide intern pool (InternSkeleton)
// stores each distinct skeleton exactly once. The instruction arena is
// the dominant footprint of a compiled program, which is what makes the
// program cache's bytes-per-config drop when a sweep shares skeletons.
struct MicroOpSkeleton {
  int num_warps = 1;
  std::vector<MicroOp> ops;          // warp w owns [warp_begin[w], warp_begin[w+1])
  std::vector<uint32_t> warp_begin;  // num_warps + 1 offsets into ops
  std::vector<MicroOpGroup> groups;
  bool blocking_async = false;  // TVM-DB modeling: async copies stall
  // Structural hash over every field above (the intern-pool bucket key;
  // equality is always confirmed field-by-field before sharing).
  uint64_t hash = 0;

  int64_t TotalOps() const { return static_cast<int64_t>(ops.size()); }
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(ops.capacity() * sizeof(MicroOp) +
                                warp_begin.capacity() * sizeof(uint32_t) +
                                groups.capacity() * sizeof(MicroOpGroup) +
                                sizeof(MicroOpSkeleton));
  }
};

// Computes the structural hash (FNV-1a over the skeleton's fields; does
// not read or write `hash` itself). Exposed for tests.
uint64_t SkeletonHash(const MicroOpSkeleton& skeleton);

// Process-wide structure-sharing pool: returns a shared skeleton equal to
// `skeleton`, inserting it if no equal live one exists. Thread-safe. The
// pool keeps only weak references: a skeleton is freed together with the
// last program (cached or not) that holds it, and leaves the pool then.
std::shared_ptr<const MicroOpSkeleton> InternSkeleton(
    MicroOpSkeleton&& skeleton);

struct SkeletonPoolStats {
  uint64_t skeletons = 0;  // pooled skeletons alive
  uint64_t bytes = 0;      // their total footprint
  uint64_t interns = 0;    // InternSkeleton calls
  uint64_t shared = 0;     // calls that found an existing equal skeleton
};
SkeletonPoolStats GetSkeletonPoolStats();

// Forgets every pooled skeleton and zeroes the stats. Held programs keep
// their skeletons (later interns no longer share them).
void ResetSkeletonPool();

// The compiled program: a shared structural skeleton plus this config's
// numeric operands — the interned patch-table rows the skeleton's
// instructions address via MicroOp::aux — and the device's sync costs.
struct MicroOpProgram {
  std::shared_ptr<const MicroOpSkeleton> skeleton;  // null only if default-constructed
  std::vector<MicroOpOperands> pool;  // interned operand rows (the patch table)
  double sync_overhead_cycles = 0.0;
  double half_sync_overhead_cycles = 0.0;

  int64_t TotalOps() const {
    return skeleton == nullptr ? 0 : skeleton->TotalOps();
  }
  // Per-config footprint: the patch table only. The shared skeleton is
  // accounted once per distinct skeleton by the cache stats, not once
  // per program.
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(pool.capacity() * sizeof(MicroOpOperands) +
                                sizeof(MicroOpProgram));
  }
};

struct TraceCompileOptions {
  bool swizzle = true;
  bool blocking_async = false;
  // Pipeline groups by dense id (max_commits is filled by the compiler).
  std::vector<MicroOpGroup> groups;
  // Fraction of each global tensor's loads that miss in LLC (default 1.0).
  std::unordered_map<const ir::BufferNode*, double> dram_fraction;
};

// Walks the lowered TIR once (blockIdx loops pinned to 0, warp loops
// broadcast, trip counts evaluated) and emits the flat program.
MicroOpProgram CompileTraceProgram(const ir::Stmt& program, int num_warps,
                                   const target::GpuSpec& spec,
                                   const TraceCompileOptions& options);

}  // namespace sim
}  // namespace alcop

#endif  // ALCOP_SIM_COMPILE_H_
