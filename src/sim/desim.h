// Discrete-event simulation of one SM executing a batch of resident
// threadblocks (the paper's threadblock-batch).
//
// Every warp of every resident threadblock is a stream replaying the
// threadblock trace. Streams contend for the SM's FIFO resources — the
// tensor-core pipe, the shared-memory (LDS) pipe, and the SM's share of
// LLC and DRAM bandwidth — and synchronize through threadblock barriers
// and the pipeline primitives:
//   - an asynchronous copy costs only issue time on its warp; its transfer
//     completes in the background on the memory servers;
//   - producer_commit seals a commit group; the group is complete when all
//     participating warps committed and every transfer landed;
//   - consumer_wait blocks a warp until group (cursor + wait_ahead)
//     completes;
//   - producer_acquire enforces the stage capacity: a warp may not reuse a
//     slot until every warp of the scope released it (this bounds warp
//     skew to the pipeline depth, as mbarriers do on hardware).
//
// This is deliberately more detailed than the Table-I analytical model —
// warm-up, drain, issue serialization, partial batches and bank-conflict
// penalties all emerge here — so that the model-accuracy experiment
// (Fig. 12) measures a real gap.
//
// Two execution cores share these semantics, and everything around them:
// both are fed by the one threadblock walk (trace.h) and timed by the one
// launch plan and wave loop (launch.h), so they differ only in the core.
//   - SimulateBatch interprets a per-warp AST-derived event trace. It is
//     the reference implementation, the differential-testing oracle for
//     the bytecode engine, and the only core that records timelines and
//     PMU counters (the profiler and the model audit run it).
//   - ReplayBatch replays a compiled micro-op program (compile.h) through
//     an event-pool core: direct-threaded micro-op handlers drive a
//     replace-top binary heap of packed 96-bit keys (one unsigned compare
//     per ordering decision, one sift per stream switch), every waiter
//     list and per-group slot array lives in a caller-owned ReplayArena
//     that is pooled across runs, and all per-event rate divisions that
//     do not depend on the wave were folded into the program — so a warm
//     replay performs zero heap allocations and reproduces the
//     interpreter's makespan bit for bit. It only times: every compile,
//     tune and alcopd request needs nothing but the cycle count.
#ifndef ALCOP_SIM_DESIM_H_
#define ALCOP_SIM_DESIM_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/compile.h"
#include "sim/pmu.h"
#include "sim/timeline.h"
#include "sim/trace.h"
#include "target/gpu_spec.h"

namespace alcop {
namespace sim {

// The interpreter's parameters: the kernel-level inputs the trace
// compiler folds into its program (swizzle, blocking copies, the pipeline
// group table, DRAM fractions), plus the wave being simulated.
struct DesimParams : TraceCompileOptions {
  int threadblocks = 1;  // resident threadblocks on the SM
  // SMs actually hosting threadblocks this batch: small grids leave SMs
  // idle, and the active ones receive a proportionally larger slice of the
  // GPU-wide LLC/DRAM bandwidth.
  int active_sms = 0;  // 0 -> spec.num_sms
  // When non-null, per-warp execution spans are recorded here (see
  // timeline.h); InterpretKernel sets it for the launch's first wave.
  Timeline* timeline = nullptr;
  // When non-null, the batch's performance counters are ADDED into this
  // struct (InterpretKernel passes a zeroed set per wave). Collection must
  // not perturb timing: each stream accumulates into its own PmuCounters
  // row, and the rows merge in stream order (see sim/pmu.h).
  PmuCounters* pmu = nullptr;
};

// Simulates one batch by interpreting the per-warp event trace; returns
// the makespan in cycles. Reference core (see file comment).
double SimulateBatch(const ThreadblockTrace& trace,
                     const target::GpuSpec& spec, const DesimParams& params);

// One threadblock wave of a replay: how many threadblocks each active SM
// hosts, and the wave-dependent bandwidth slices (GPU-wide LLC/DRAM rates
// divided by the number of active SMs). Everything wave-independent was
// baked into the program by the trace compiler.
struct ReplayWave {
  int threadblocks = 1;
  double llc_rate = 1.0;
  double dram_rate = 1.0;
  double dram_write_rate = 1.0;
};

// Pooled state of the replay core. Every replay sizes and refills all
// vectors, the static addressing tables included, with resize/assign
// (which never shrink capacity), so replaying programs of the same shape
// re-uses every buffer: after the first run on a given shape, ReplayBatch
// performs no heap allocation. CapacityBytes() lets benches assert
// exactly that.
struct ReplayArena {
  struct Stream {
    double time = 0.0;
    double pending_sync = 0.0;
    uint32_t pc = 0;   // absolute index into program.ops
    uint32_t end = 0;  // end of this stream's instruction span
    int32_t tb = 0;
    int32_t warp = 0;
  };
  struct Waiter {
    int32_t stream = 0;
    int32_t value = 0;  // group index (wait) or needed releases (acquire)
    double park_time = 0.0;
  };
  // Park lists of one pipeline-scope instance (per (tb, group) for shared
  // scope, per (tb, group, warp) for register scope). The instance's
  // numeric state lives in the flat slot_*/releases arrays below.
  struct WaiterLists {
    std::vector<Waiter> wait;
    std::vector<Waiter> acquire;
  };
  struct Barrier {
    int arrived = 0;
    double max_time = 0.0;
    std::vector<std::pair<int32_t, double>> parked;
  };
  // One node of the scheduler's binary min-heap, a single 96-bit
  // ordering key: bits(time) in the high 64 (stream times are always
  // non-negative finite doubles, whose IEEE bit patterns order like the
  // values), and ~id in the low 32 so that unsigned key comparison is
  // exactly the interpreter's pop order (time ascending, ties to the
  // higher stream id) in one branchless compare. Parked and finished
  // streams are simply absent from the heap.
  struct HeapEntry {
    unsigned __int128 key = 0;
  };

  std::vector<Stream> streams;
  // Per-stream per-group counters, indexed stream * num_groups + group
  // (32-bit: a stream issues far fewer than 2^31 ops of any kind).
  std::vector<int32_t> acquires;
  std::vector<int32_t> commits;
  std::vector<int32_t> waits;
  std::vector<double> copy_max;
  // Per-(stream, group) pre-resolved addressing (same index as above):
  // which instance the pair synchronizes on, and which release slot the
  // stream owns in it.
  std::vector<int32_t> stream_inst;
  std::vector<int32_t> stream_rel;
  // Flat per-instance state, structure-of-arrays: instance i owns commit
  // slots [inst_slot_base[i], +cap(group)) and release slots
  // [inst_rel_base[i], +inst_participants[i]).
  std::vector<int32_t> inst_participants;
  std::vector<int32_t> inst_slot_base;
  std::vector<int32_t> inst_rel_base;
  std::vector<int32_t> inst_min_rel;  // cached min over the release slots
  std::vector<int32_t> slot_commits;
  std::vector<double> slot_partial_max;
  std::vector<double> slot_complete;
  std::vector<uint8_t> slot_done;
  std::vector<int32_t> releases;
  // Grow-only: a wave uses the prefix it needs (per instance / per tb).
  std::vector<WaiterLists> waiters;
  std::vector<Barrier> barriers;
  std::vector<HeapEntry> heap;  // binary min-heap of runnable streams
  // Wave-scaled operand pool: 8 doubles per program pool row — the raw
  // row plus every "amount / wave rate" quotient the handlers need,
  // divided once per wave instead of once per event (the quotient of the
  // hoisted division is bit-identical to the interpreter's per-event
  // division). Row slot 7 is unused; it keeps the rows 64 bytes apart.
  std::vector<double> pool_scaled;

  // Total reserved heap memory; constant across warm replays.
  size_t CapacityBytes() const;
};

// Replays one threadblock wave of a compiled program; returns the makespan
// in cycles. Bit-identical to SimulateBatch on the equivalent trace.
double ReplayBatch(const MicroOpProgram& program, const ReplayWave& wave,
                   ReplayArena* arena);

}  // namespace sim
}  // namespace alcop

#endif  // ALCOP_SIM_DESIM_H_
