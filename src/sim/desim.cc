#include "sim/desim.h"

#include <algorithm>
#include <cstring>
#include <queue>

#include "support/check.h"

namespace alcop {
namespace sim {

namespace {

// FIFO bandwidth server: amounts queue behind each other at a fixed rate.
struct Server {
  double free = 0.0;
  double rate = 1.0;

  // Serves `amount` starting no earlier than `t`; returns completion time
  // and optionally the service start (for timeline recording).
  double Serve(double t, double amount, double* start_out = nullptr) {
    double start = std::max(t, free);
    if (start_out != nullptr) *start_out = start;
    free = start + amount / rate;
    return free;
  }
};

// State of one pipeline scope instance (one sync group within one
// threadblock for shared scope, or one warp for register scope).
struct Instance {
  int participants = 1;
  std::vector<int> commits_seen;      // per group index
  std::vector<double> partial_max;    // max transfer completion so far
  std::vector<double> complete;       // completion time once fully committed
  std::vector<char> is_complete;
  std::vector<int64_t> releases;      // per participant slot

  struct WaitWaiter {
    int stream;
    int64_t group_index;
    double park_time;
  };
  struct AcquireWaiter {
    int stream;
    int64_t needed_releases;
    double park_time;
  };
  std::vector<WaitWaiter> wait_waiters;
  std::vector<AcquireWaiter> acquire_waiters;

  void EnsureGroup(size_t index) {
    while (commits_seen.size() <= index) {
      commits_seen.push_back(0);
      partial_max.push_back(0.0);
      complete.push_back(0.0);
      is_complete.push_back(0);
    }
  }

  int64_t MinReleases() const {
    int64_t min_rel = releases.empty() ? 0 : releases[0];
    for (int64_t r : releases) min_rel = std::min(min_rel, r);
    return min_rel;
  }
};

// Barrier rendezvous state of one threadblock.
struct BarrierState {
  int arrived = 0;
  double max_time = 0.0;
  // (stream id, arrival time) of waiters, excluding the releaser.
  std::vector<std::pair<int, double>> parked;
};

struct Stream {
  int tb = 0;
  int warp = 0;
  double time = 0.0;
  size_t pc = 0;
  // Per-group counters (indexed by group id).
  std::vector<int64_t> acquires, commits, waits;
  std::vector<double> copy_max;  // max completion of copies since last commit
  // Outstanding synchronous loads: a warp issues back-to-back loads whose
  // round-trip latencies overlap; the next dependent event (MMA, barrier,
  // store) stalls until the last one lands.
  double pending_sync = 0.0;
};

class Desim {
 public:
  Desim(const ThreadblockTrace& trace, const target::GpuSpec& spec,
        const DesimParams& params)
      : trace_(trace), spec_(spec), params_(params) {
    // Tensor cores sit in four SM sub-partitions; a warp is pinned to one,
    // so fewer than four resident warps cannot reach the SM's full
    // throughput.
    for (Server& partition : tc_) {
      partition.rate = spec.tc_flops_per_sm_per_cycle / 4.0;
    }
    lds_.rate = spec.lds_bytes_per_cycle_per_sm /
                (params.swizzle ? 1.0 : spec.bank_conflict_factor);
    int active_sms = params.active_sms > 0 ? params.active_sms : spec.num_sms;
    llc_.rate = spec.llc_bw_bytes_per_cycle / active_sms;
    dram_.rate = spec.dram_bw_bytes_per_cycle / active_sms;
    dram_write_.rate = spec.dram_write_bw_bytes_per_cycle / active_sms;

    int warps = trace.num_warps;
    size_t num_groups = params.groups.size();
    streams_.resize(static_cast<size_t>(params.threadblocks * warps));
    for (int tb = 0; tb < params.threadblocks; ++tb) {
      for (int w = 0; w < warps; ++w) {
        Stream& s = streams_[static_cast<size_t>(tb * warps + w)];
        s.tb = tb;
        s.warp = w;
        s.acquires.assign(num_groups, 0);
        s.commits.assign(num_groups, 0);
        s.waits.assign(num_groups, 0);
        s.copy_max.assign(num_groups, 0.0);
      }
    }
    // PMU accumulators: one f64/i64 slot row per stream plus the
    // per-(stream, group) async-copy depth (sim/pmu.h). Only sized when
    // the caller asked for counters.
    pmu_ = params.pmu != nullptr;
    if (pmu_) {
      pmu_f64_.assign(streams_.size() * kPmuF64Count, 0.0);
      pmu_i64_.assign(streams_.size() * kPmuI64Count, 0);
      pmu_depth_.assign(streams_.size() * num_groups, 0);
    }
    barriers_.resize(static_cast<size_t>(params.threadblocks));
    // Instances: [tb][group] -> instance (register-scope instances are
    // per (tb, warp, group)).
    instances_.resize(static_cast<size_t>(params.threadblocks));
    for (int tb = 0; tb < params.threadblocks; ++tb) {
      auto& per_tb = instances_[static_cast<size_t>(tb)];
      per_tb.resize(num_groups);
      for (size_t g = 0; g < num_groups; ++g) {
        if (params.groups[g].tb_scope) {
          per_tb[g].resize(1);
          per_tb[g][0].participants = warps;
          per_tb[g][0].releases.assign(static_cast<size_t>(warps), 0);
        } else {
          per_tb[g].resize(static_cast<size_t>(warps));
          for (Instance& inst : per_tb[g]) {
            inst.participants = 1;
            inst.releases.assign(1, 0);
          }
        }
      }
    }
  }

  double Run() {
    for (size_t i = 0; i < streams_.size(); ++i) {
      Push(static_cast<int>(i));
    }
    while (!queue_.empty()) {
      auto [neg_time, id] = queue_.top();
      queue_.pop();
      Step(id);
    }
    double makespan = store_completion_;
    for (const Stream& s : streams_) makespan = std::max(makespan, s.time);
    if (params_.timeline != nullptr) params_.timeline->makespan = makespan;
    if (pmu_) {
      AccumulatePmuStreams(params_.pmu, pmu_f64_.data(), pmu_i64_.data(),
                           streams_.size());
    }
    // Every stream must have drained its trace; anything else is a
    // synchronization deadlock in the input program.
    for (const Stream& s : streams_) {
      ALCOP_CHECK_EQ(s.pc, trace_.warps[static_cast<size_t>(s.warp)].events.size())
          << "stream deadlocked at event " << s.pc << " (tb " << s.tb
          << ", warp " << s.warp << ")";
    }
    return makespan;
  }

 private:
  using QueueEntry = std::pair<double, int>;  // (-time, stream)

  void Push(int id) {
    queue_.emplace(-streams_[static_cast<size_t>(id)].time, id);
  }

  Instance& InstanceFor(const Stream& s, int group) {
    auto& per_group = instances_[static_cast<size_t>(s.tb)][static_cast<size_t>(group)];
    return per_group.size() == 1 ? per_group[0]
                                 : per_group[static_cast<size_t>(s.warp)];
  }

  int ParticipantSlot(const Stream& s, int group) const {
    return params_.groups[static_cast<size_t>(group)].tb_scope ? s.warp : 0;
  }

  void Record(int tb, int warp, SpanKind kind, double start, double end) {
    if (params_.timeline == nullptr || end <= start) return;
    params_.timeline->spans.push_back({tb, warp, kind, start, end});
  }

  double TransferCompletion(double t, const TraceEvent& e, int tb) {
    double completion = TransferCompletionImpl(t, e);
    Record(tb, -1, SpanKind::kTransfer, t, completion);
    return completion;
  }

  double TransferCompletionImpl(double t, const TraceEvent& e) {
    if (e.src_scope == ir::MemScope::kGlobal) {
      double fraction = 1.0;
      auto it = params_.dram_fraction.find(e.src_tensor);
      if (it != params_.dram_fraction.end()) fraction = it->second;
      double bytes = static_cast<double>(e.bytes);
      double t_llc = llc_.Serve(t, bytes);
      double completion = t_llc;
      if (fraction > 1e-3) {
        completion = std::max(completion, dram_.Serve(t, bytes * fraction));
      }
      // Round-trip latency of the copy's critical path: mostly-LLC tiles
      // see LLC latency; the DRAM share of a tile stretches it toward the
      // DRAM round trip (misses of co-scheduled threadblocks overlap, so
      // an expected-value blend, not a hard max).
      double latency =
          spec_.llc_latency_cycles +
          std::min(fraction, 1.0) *
              (spec_.dram_latency_cycles - spec_.llc_latency_cycles);
      return completion + latency;
    }
    // Shared -> register through the LDS pipe.
    return lds_.Serve(t, static_cast<double>(e.bytes)) +
           spec_.smem_latency_cycles;
  }

  // Processes one event of the stream; reinserts the stream unless it
  // parked or finished.
  void Step(int id) {
    Stream& s = streams_[static_cast<size_t>(id)];
    const std::vector<TraceEvent>& events =
        trace_.warps[static_cast<size_t>(s.warp)].events;
    if (s.pc >= events.size()) return;
    const TraceEvent& e = events[s.pc];

    switch (e.kind) {
      case EventKind::kFill: {
        double t0 = s.time;
        s.time += static_cast<double>(e.bytes) / 256.0;
        Record(s.tb, s.warp, SpanKind::kFill, t0, s.time);
        if (pmu_) {
          PmuF(id)[kPmuFill] += static_cast<double>(e.bytes) / 256.0;
        }
        break;
      }
      case EventKind::kMma: {
        DrainSyncLoads(id, s);
        // Warps are distributed round-robin over the four sub-partitions.
        Server& partition =
            tc_[static_cast<size_t>((s.tb * trace_.num_warps + s.warp) % 4)];
        double start = 0.0;
        s.time = partition.Serve(s.time, static_cast<double>(e.flops), &start);
        Record(s.tb, s.warp, SpanKind::kCompute, start, s.time);
        if (pmu_) {
          double* f = PmuF(id);
          // The same quotient the trace compiler bakes as the op's
          // tensor-core cycles, so the counter is bit-identical to replay.
          f[kPmuTensorActive] +=
              static_cast<double>(e.flops) / partition.rate;
          f[kPmuFlops] += static_cast<double>(e.flops);
        }
        break;
      }
      case EventKind::kCopyAsync: {
        double t0 = s.time;
        s.time += static_cast<double>(e.bytes) / spec_.copy_issue_bytes_per_cycle;
        Record(s.tb, s.warp, SpanKind::kIssue, t0, s.time);
        double completion = TransferCompletion(s.time, e, s.tb);
        ALCOP_CHECK_GE(e.group, 0) << "async copy without a pipeline group";
        s.copy_max[static_cast<size_t>(e.group)] =
            std::max(s.copy_max[static_cast<size_t>(e.group)], completion);
        if (pmu_) {
          PmuCountCopy(id, e);
          double* f = PmuF(id);
          int64_t* n = PmuN(id);
          f[kPmuCpAsyncBytes] += static_cast<double>(e.bytes);
          ++n[kPmuCpAsyncTx];
          int32_t depth = ++pmu_depth_[static_cast<size_t>(id) *
                                           params_.groups.size() +
                                       static_cast<size_t>(e.group)];
          ++n[kPmuDepthHist0 + std::min(depth - 1, kPmuDepthBuckets - 1)];
          if (params_.blocking_async) {
            f[kPmuExposedCopy] += completion - s.time;
          }
        }
        if (params_.blocking_async) {
          Record(s.tb, s.warp, SpanKind::kBlockingCopy, s.time, completion);
          s.time = completion;
        }
        break;
      }
      case EventKind::kCopySync: {
        double t0 = s.time;
        s.time += static_cast<double>(e.bytes) / spec_.copy_issue_bytes_per_cycle;
        Record(s.tb, s.warp, SpanKind::kIssue, t0, s.time);
        s.pending_sync =
            std::max(s.pending_sync, TransferCompletion(s.time, e, s.tb));
        if (pmu_) PmuCountCopy(id, e);
        break;
      }
      case EventKind::kStoreGlobal: {
        DrainSyncLoads(id, s);
        double t0 = s.time;
        s.time += static_cast<double>(e.bytes) / spec_.copy_issue_bytes_per_cycle;
        Record(s.tb, s.warp, SpanKind::kStore, t0, s.time);
        double completion =
            dram_write_.Serve(s.time, static_cast<double>(e.bytes)) +
            spec_.dram_latency_cycles;
        store_completion_ = std::max(store_completion_, completion);
        if (pmu_) {
          double* f = PmuF(id);
          f[kPmuCopyIssue] +=
              static_cast<double>(e.bytes) / spec_.copy_issue_bytes_per_cycle;
          f[kPmuDramWriteBytes] += static_cast<double>(e.bytes);
          ++PmuN(id)[kPmuDramWriteTx];
        }
        break;
      }
      case EventKind::kAcquire: {
        Instance& inst = InstanceFor(s, e.group);
        int64_t n = s.acquires[static_cast<size_t>(e.group)];
        int64_t needed = n - (params_.groups[static_cast<size_t>(e.group)].stages - 1);
        if (needed > inst.MinReleases()) {
          inst.acquire_waiters.push_back({id, needed, s.time});
          if (pmu_) ++PmuN(id)[kPmuAcquireParks];
          return;  // parked
        }
        s.time += spec_.sync_overhead_cycles;
        ++s.acquires[static_cast<size_t>(e.group)];
        break;
      }
      case EventKind::kCommit: {
        Instance& inst = InstanceFor(s, e.group);
        size_t idx = static_cast<size_t>(s.commits[static_cast<size_t>(e.group)]);
        inst.EnsureGroup(idx);
        inst.partial_max[idx] =
            std::max(inst.partial_max[idx], s.copy_max[static_cast<size_t>(e.group)]);
        s.copy_max[static_cast<size_t>(e.group)] = 0.0;
        if (++inst.commits_seen[idx] == inst.participants) {
          inst.complete[idx] = inst.partial_max[idx];
          inst.is_complete[idx] = 1;
          WakeWaitWaiters(inst, static_cast<int64_t>(idx));
        }
        ++s.commits[static_cast<size_t>(e.group)];
        s.time += spec_.sync_overhead_cycles * 0.5;
        if (pmu_) {
          pmu_depth_[static_cast<size_t>(id) * params_.groups.size() +
                     static_cast<size_t>(e.group)] = 0;
        }
        break;
      }
      case EventKind::kWait: {
        Instance& inst = InstanceFor(s, e.group);
        int64_t idx = s.waits[static_cast<size_t>(e.group)] + e.wait_ahead;
        if (static_cast<size_t>(idx) >= inst.is_complete.size() ||
            !inst.is_complete[static_cast<size_t>(idx)]) {
          inst.wait_waiters.push_back({id, idx, s.time});
          return;  // parked (counted at wake; see kPmuWaitParks contract)
        }
        double t0 = s.time;
        s.time = std::max(s.time, inst.complete[static_cast<size_t>(idx)]) +
                 spec_.sync_overhead_cycles;
        Record(s.tb, s.warp, SpanKind::kSyncStall, t0, s.time);
        if (pmu_) {
          PmuF(id)[kPmuWaitStall] += s.time - t0;
          // Whether a wait physically parks depends on scheduling order
          // (the eager replay core parks where the strict interpreter
          // passes through), so the counter records the invariant fact
          // instead: the data was not ready on arrival.
          if (s.time - t0 > spec_.sync_overhead_cycles) {
            ++PmuN(id)[kPmuWaitParks];
          }
        }
        ++s.waits[static_cast<size_t>(e.group)];
        break;
      }
      case EventKind::kRelease: {
        Instance& inst = InstanceFor(s, e.group);
        ++inst.releases[static_cast<size_t>(ParticipantSlot(s, e.group))];
        s.time += spec_.sync_overhead_cycles * 0.5;
        WakeAcquireWaiters(inst, s.time);
        break;
      }
      case EventKind::kBarrier: {
        DrainSyncLoads(id, s);
        BarrierState& barrier = barriers_[static_cast<size_t>(s.tb)];
        barrier.max_time = std::max(barrier.max_time, s.time);
        if (++barrier.arrived < trace_.num_warps) {
          barrier.parked.emplace_back(id, s.time);
          if (pmu_) ++PmuN(id)[kPmuBarrierArrivals];
          ++s.pc;  // the releaser advances everyone past the barrier
          return;
        }
        double resume = barrier.max_time + spec_.sync_overhead_cycles;
        for (const auto& [parked_id, arrival] : barrier.parked) {
          Stream& p = streams_[static_cast<size_t>(parked_id)];
          Record(p.tb, p.warp, SpanKind::kBarrier, arrival, resume);
          if (pmu_) PmuF(parked_id)[kPmuBarrierStall] += resume - arrival;
          p.time = resume;
          Push(parked_id);
        }
        barrier.parked.clear();
        barrier.arrived = 0;
        barrier.max_time = 0.0;
        Record(s.tb, s.warp, SpanKind::kBarrier, s.time, resume);
        if (pmu_) {
          ++PmuN(id)[kPmuBarrierArrivals];
          PmuF(id)[kPmuBarrierStall] += resume - s.time;
        }
        s.time = resume;
        break;
      }
    }

    ++s.pc;
    if (s.pc < events.size()) Push(id);
  }

  void DrainSyncLoads(int id, Stream& s) {
    if (s.pending_sync > s.time) {
      Record(s.tb, s.warp, SpanKind::kBlockingCopy, s.time, s.pending_sync);
      if (pmu_) PmuF(id)[kPmuExposedCopy] += s.pending_sync - s.time;
      s.time = s.pending_sync;
    }
    s.pending_sync = 0.0;
  }

  // Byte/transaction counters shared by sync and async copies — the same
  // bytes, LDS quotient and DRAM-fraction product the trace compiler
  // bakes into the pooled operands (bit-identity with replay).
  void PmuCountCopy(int id, const TraceEvent& e) {
    double* f = PmuF(id);
    int64_t* n = PmuN(id);
    double bytes = static_cast<double>(e.bytes);
    f[kPmuCopyIssue] += bytes / spec_.copy_issue_bytes_per_cycle;
    if (e.src_scope == ir::MemScope::kGlobal) {
      f[kPmuLlcReadBytes] += bytes;
      ++n[kPmuLlcReadTx];
      double fraction = 1.0;
      auto it = params_.dram_fraction.find(e.src_tensor);
      if (it != params_.dram_fraction.end()) fraction = it->second;
      if (fraction > 1e-3) {
        f[kPmuDramReadBytes] += bytes * fraction;
        ++n[kPmuDramReadTx];
      }
    } else {
      f[kPmuLdsActive] += bytes / lds_.rate;
      f[kPmuLdsReadBytes] += bytes;
      ++n[kPmuLdsReadTx];
    }
  }

  double* PmuF(int id) {
    return pmu_f64_.data() + static_cast<size_t>(id) * kPmuF64Count;
  }
  int64_t* PmuN(int id) {
    return pmu_i64_.data() + static_cast<size_t>(id) * kPmuI64Count;
  }

  void WakeWaitWaiters(Instance& inst, int64_t group_index) {
    auto it = inst.wait_waiters.begin();
    while (it != inst.wait_waiters.end()) {
      if (it->group_index == group_index) {
        Stream& s = streams_[static_cast<size_t>(it->stream)];
        const TraceEvent& e =
            trace_.warps[static_cast<size_t>(s.warp)].events[s.pc];
        s.time = std::max(it->park_time,
                          inst.complete[static_cast<size_t>(group_index)]) +
                 spec_.sync_overhead_cycles;
        Record(s.tb, s.warp, SpanKind::kSyncStall, it->park_time, s.time);
        if (pmu_) {
          PmuF(it->stream)[kPmuWaitStall] += s.time - it->park_time;
          if (s.time - it->park_time > spec_.sync_overhead_cycles) {
            ++PmuN(it->stream)[kPmuWaitParks];
          }
        }
        ++s.waits[static_cast<size_t>(e.group)];
        ++s.pc;
        if (s.pc < trace_.warps[static_cast<size_t>(s.warp)].events.size()) {
          Push(it->stream);
        }
        it = inst.wait_waiters.erase(it);
      } else {
        ++it;
      }
    }
  }

  void WakeAcquireWaiters(Instance& inst, double release_time) {
    int64_t min_rel = inst.MinReleases();
    auto it = inst.acquire_waiters.begin();
    while (it != inst.acquire_waiters.end()) {
      if (it->needed_releases <= min_rel) {
        Stream& s = streams_[static_cast<size_t>(it->stream)];
        const TraceEvent& e =
            trace_.warps[static_cast<size_t>(s.warp)].events[s.pc];
        s.time = std::max(it->park_time, release_time) +
                 spec_.sync_overhead_cycles;
        Record(s.tb, s.warp, SpanKind::kSyncStall, it->park_time, s.time);
        if (pmu_) {
          PmuF(it->stream)[kPmuAcquireStall] += s.time - it->park_time;
        }
        ++s.acquires[static_cast<size_t>(e.group)];
        ++s.pc;
        if (s.pc < trace_.warps[static_cast<size_t>(s.warp)].events.size()) {
          Push(it->stream);
        }
        it = inst.acquire_waiters.erase(it);
      } else {
        ++it;
      }
    }
  }

  const ThreadblockTrace& trace_;
  const target::GpuSpec& spec_;
  const DesimParams& params_;

  Server tc_[4];
  Server lds_, llc_, dram_, dram_write_;
  std::vector<Stream> streams_;
  std::vector<BarrierState> barriers_;
  // instances_[tb][group] -> one (tb-scope) or num_warps (warp-scope).
  std::vector<std::vector<std::vector<Instance>>> instances_;
  std::priority_queue<QueueEntry> queue_;  // (-time, stream): min-time first
  double store_completion_ = 0.0;
  // PMU state (sized only when params.pmu != nullptr).
  bool pmu_ = false;
  std::vector<double> pmu_f64_;
  std::vector<int64_t> pmu_i64_;
  std::vector<int32_t> pmu_depth_;  // per (stream, group) in-flight copies
};

}  // namespace

double SimulateBatch(const ThreadblockTrace& trace,
                     const target::GpuSpec& spec, const DesimParams& params) {
  ALCOP_CHECK_GT(params.threadblocks, 0);
  return Desim(trace, spec, params).Run();
}

size_t ReplayArena::CapacityBytes() const {
  size_t total = streams.capacity() * sizeof(Stream) +
                 (acquires.capacity() + commits.capacity() +
                  waits.capacity() + releases.capacity()) * sizeof(int32_t) +
                 (copy_max.capacity() + slot_partial_max.capacity() +
                  slot_complete.capacity() + pool_scaled.capacity()) *
                     sizeof(double) +
                 (stream_inst.capacity() + stream_rel.capacity() +
                  inst_participants.capacity() + inst_slot_base.capacity() +
                  inst_rel_base.capacity() + inst_min_rel.capacity() +
                  slot_commits.capacity()) *
                     sizeof(int32_t) +
                 slot_done.capacity() * sizeof(uint8_t) +
                 waiters.capacity() * sizeof(WaiterLists) +
                 barriers.capacity() * sizeof(Barrier) +
                 heap.capacity() * sizeof(HeapEntry) +
                 pmu_f64.capacity() * sizeof(double) +
                 pmu_i64.capacity() * sizeof(int64_t) +
                 pmu_depth.capacity() * sizeof(int32_t);
  for (const WaiterLists& lists : waiters) {
    total += (lists.wait.capacity() + lists.acquire.capacity()) *
             sizeof(Waiter);
  }
  for (const Barrier& barrier : barriers) {
    total += barrier.parked.capacity() * sizeof(std::pair<int32_t, double>);
  }
  return total;
}

namespace {

// The bytecode replay core. A transliteration of Desim::Step over the flat
// micro-op program: every floating-point expression is evaluated in the
// same order with the same values, so the makespan and timeline spans are
// bit-identical to the interpreter (the per-event divisions by
// wave-independent rates were already folded into the program operands by
// the trace compiler, producing the exact same doubles).
//
// The hot loop works exclusively on raw pointers into the caller's pooled
// arena: flat SoA instance state, per-(stream, group) pre-resolved
// instance/release-slot tables, and a plain binary heap driven replace-top
// style — the common case of "finish event, requeue, pop next" costs one
// sift-down instead of a pop + push pair, and a stream that stays earliest
// keeps running with no heap traffic at all. Handlers are direct-threaded:
// each one ends in its own computed-goto dispatch site (a GNU extension,
// like the __int128 scheduler keys), so the branch predictor learns the
// opcode transitions that actually follow each kind instead of sharing one
// saturated indirect jump.
//
// The class is templated on whether a timeline is being captured. The hot
// (no-timeline) instantiation compiles every Record call out AND runs the
// eagerly-continuable micro-op kinds (see kFirstEagerKind) inline, out of
// strict timestamp order — result-identical by the commutativity argument
// in compile.h, and differentially tested against the interpreter over
// the full operator sweep. The timeline instantiation executes in exact
// pop order so that the recorded spans match the interpreter's byte for
// byte, order included.
//
// The second template flag enables PMU counter collection (sim/pmu.h):
// disabled, every counter hook compiles out and the arena's PMU rows are
// never sized — the warm zero-allocation contract is unchanged. Enabled,
// each stream accumulates into its own slot row; eager execution runs
// streams out of global order, but a stream's own additions still follow
// its program order, and the rows merge through AccumulatePmuStreams in
// fixed stream order — so the counters are bit-identical to the
// interpreter's despite the reordering.
template <bool kTimeline, bool kPmu>
class Replayer {
 public:
  Replayer(const MicroOpProgram& program, const ReplayWave& wave,
           ReplayArena& arena, Timeline* timeline, PmuCounters* pmu)
      : p_(program), wave_(wave), a_(arena), timeline_(timeline),
        pmu_out_(pmu) {}

  double Run() {
    Reset();
    // One entry per MicroOpKind, in enum order.
    static const void* kT[] = {
        &&handle_copy_async_global, &&handle_copy_async_shared,
        &&handle_copy_sync_global,  &&handle_copy_sync_shared,
        &&handle_store_global,      &&handle_mma,
        &&handle_acquire,           &&handle_release,
        &&handle_fill,              &&handle_commit,
        &&handle_wait,              &&handle_barrier};
    int32_t id;
    Stream* s;
    const MicroOp* op;
#define ALCOP_DISPATCH() goto *kT[static_cast<int>(op->kind)]
// Finishes an event: advance pc, then pick the next stream to run. In the
// hot instantiation a next op from the eagerly-continuable suffix of
// MicroOpKind runs inline regardless of the queue — out of timestamp order
// but provably result-identical (see compile.h). Otherwise, if the current
// stream would be popped right back it keeps running with no heap traffic;
// else its entry replaces the heap top (one sift-down) and the old top
// runs next. Both shortcuts preserve the exact pop order of the
// interpreter's push-then-pop, because the order is a strict total order
// over (time, id).
#define ALCOP_NEXT()                                        \
  do {                                                      \
    if (++s->pc == s->end) goto pop_next;                   \
    op = ops_ + s->pc;                                      \
    if constexpr (!kTimeline) {                             \
      if (op->kind >= kFirstEagerKind) ALCOP_DISPATCH();    \
      /* A PASSING acquire is also eager-safe: the pass path is        \
         stream-local (time += sync), and releases only ever raise     \
         imin_, so an acquire that passes now would also pass — with   \
         the identical result — at its strict queue turn. A would-park \
         acquire is NOT run early: a release firing before its queue   \
         turn could turn the park into a pass (or change the wake      \
         time), so it goes through the queue and decides there. */     \
      if (op->kind == MicroOpKind::kAcquire) {              \
        const size_t gi_ = GroupIndex(id, op->group);       \
        if (acq_[gi_] - op->aux <= imin_[sinst_[gi_]]) {    \
          ALCOP_DISPATCH();                                 \
        }                                                   \
      }                                                     \
    }                                                       \
    if (heap_size_ == 0) ALCOP_DISPATCH();                  \
    {                                                       \
      const Key key = MakeKey(s->time, id);                 \
      const Key top = tree_[0].key;                         \
      if (key < top) ALCOP_DISPATCH();                      \
      SiftRoot(key);                                        \
      id = KeyId(top);                                      \
      s = streams_ + id;                                    \
      if (s->pc >= s->end) goto pop_next;                   \
    }                                                       \
    op = ops_ + s->pc;                                      \
    ALCOP_DISPATCH();                                       \
  } while (0)

  pop_next:
    if (heap_size_ == 0) goto done;
    id = KeyId(tree_[0].key);
    if (--heap_size_ > 0) {
      SiftRoot(tree_[heap_size_].key);
    }
    s = streams_ + id;
    if (s->pc >= s->end) goto pop_next;  // woken after its last event
    op = ops_ + s->pc;
    ALCOP_DISPATCH();

  handle_fill: {
    const double t0 = s->time;
    s->time += spool_[op->aux * 8];
    Record(s->tb, s->warp, SpanKind::kFill, t0, s->time);
    if constexpr (kPmu) Pf(id)[kPmuFill] += spool_[op->aux * 8];
    ALCOP_NEXT();
  }

  handle_mma: {
    DrainSyncLoads(*s);
    // Streams are tb-major (id == tb * num_warps + warp), so the
    // interpreter's (tb * num_warps + warp) % 4 partition is id % 4.
    double& free = tc_free_[static_cast<size_t>(id) & 3];
    const double start = std::max(s->time, free);
    free = start + spool_[op->aux * 8];
    s->time = free;
    Record(s->tb, s->warp, SpanKind::kCompute, start, s->time);
    if constexpr (kPmu) {
      double* f = Pf(id);
      f[kPmuTensorActive] += spool_[op->aux * 8];
      f[kPmuFlops] += spool_[op->aux * 8 + 7];  // payload: FLOPs
    }
    ALCOP_NEXT();
  }

  handle_copy_async_global: {
    const double* v = spool_ + op->aux * 8;
    const double t0 = s->time;
    s->time += v[0];
    Record(s->tb, s->warp, SpanKind::kIssue, t0, s->time);
    const double completion = GlobalTransfer(s->time, v, op->flags, s->tb);
    double& copy_max = cmax_[GroupIndex(id, op->group)];
    copy_max = std::max(copy_max, completion);
    if constexpr (kPmu) {
      PmuGlobalRead(id, v, op->flags);
      double* f = Pf(id);
      int64_t* n = Pn(id);
      f[kPmuCpAsyncBytes] += v[7];
      ++n[kPmuCpAsyncTx];
      const int32_t depth = ++pd_[GroupIndex(id, op->group)];
      ++n[kPmuDepthHist0 +
          (depth < kPmuDepthBuckets ? depth - 1 : kPmuDepthBuckets - 1)];
      if (blocking_async_) f[kPmuExposedCopy] += completion - s->time;
    }
    if (blocking_async_) {
      Record(s->tb, s->warp, SpanKind::kBlockingCopy, s->time, completion);
      s->time = completion;
    }
    ALCOP_NEXT();
  }

  handle_copy_async_shared: {
    const double* v = spool_ + op->aux * 8;
    const double t0 = s->time;
    s->time += v[0];
    Record(s->tb, s->warp, SpanKind::kIssue, t0, s->time);
    const double completion = SharedTransfer(s->time, v, s->tb);
    double& copy_max = cmax_[GroupIndex(id, op->group)];
    copy_max = std::max(copy_max, completion);
    if constexpr (kPmu) {
      PmuSharedRead(id, v);
      double* f = Pf(id);
      int64_t* n = Pn(id);
      f[kPmuCpAsyncBytes] += v[7];
      ++n[kPmuCpAsyncTx];
      const int32_t depth = ++pd_[GroupIndex(id, op->group)];
      ++n[kPmuDepthHist0 +
          (depth < kPmuDepthBuckets ? depth - 1 : kPmuDepthBuckets - 1)];
      if (blocking_async_) f[kPmuExposedCopy] += completion - s->time;
    }
    if (blocking_async_) {
      Record(s->tb, s->warp, SpanKind::kBlockingCopy, s->time, completion);
      s->time = completion;
    }
    ALCOP_NEXT();
  }

  handle_copy_sync_global: {
    const double* v = spool_ + op->aux * 8;
    const double t0 = s->time;
    s->time += v[0];
    Record(s->tb, s->warp, SpanKind::kIssue, t0, s->time);
    const double completion = GlobalTransfer(s->time, v, op->flags, s->tb);
    s->pending_sync = std::max(s->pending_sync, completion);
    if constexpr (kPmu) PmuGlobalRead(id, v, op->flags);
    ALCOP_NEXT();
  }

  handle_copy_sync_shared: {
    const double* v = spool_ + op->aux * 8;
    const double t0 = s->time;
    s->time += v[0];
    Record(s->tb, s->warp, SpanKind::kIssue, t0, s->time);
    const double completion = SharedTransfer(s->time, v, s->tb);
    s->pending_sync = std::max(s->pending_sync, completion);
    if constexpr (kPmu) PmuSharedRead(id, v);
    ALCOP_NEXT();
  }

  handle_store_global: {
    DrainSyncLoads(*s);
    const double* v = spool_ + op->aux * 8;
    const double t0 = s->time;
    s->time += v[0];
    Record(s->tb, s->warp, SpanKind::kStore, t0, s->time);
    const double start = std::max(s->time, dram_write_free_);
    dram_write_free_ = start + v[6];  // op1 / dram-write rate
    const double completion = dram_write_free_ + v[2];
    store_completion_ = std::max(store_completion_, completion);
    if constexpr (kPmu) {
      double* f = Pf(id);
      f[kPmuCopyIssue] += v[0];
      f[kPmuDramWriteBytes] += v[7];
      ++Pn(id)[kPmuDramWriteTx];
    }
    ALCOP_NEXT();
  }

  handle_acquire: {
    const size_t gi = GroupIndex(id, op->group);
    const int32_t inst = sinst_[gi];
    const int32_t needed = acq_[gi] - op->aux;  // aux = stages - 1
    if (needed > imin_[inst]) {
      a_.waiters[static_cast<size_t>(inst)].acquire.push_back(
          {id, needed, s->time});
      if constexpr (kPmu) ++Pn(id)[kPmuAcquireParks];
      goto pop_next;  // parked
    }
    s->time += sync_;
    ++acq_[gi];
    ALCOP_NEXT();
  }

  handle_commit: {
    const size_t gi = GroupIndex(id, op->group);
    const int32_t inst = sinst_[gi];
    const int32_t count = com_[gi];
    const int32_t slot = ibase_[inst] + count;
    double& partial = spartial_[slot];
    partial = std::max(partial, cmax_[gi]);
    cmax_[gi] = 0.0;
    if (++scommits_[slot] == ipart_[inst]) {
      scomplete_[slot] = partial;
      sdone_[slot] = 1;
      WakeWaitWaiters(inst, count);
    }
    com_[gi] = count + 1;
    s->time += half_sync_;
    if constexpr (kPmu) pd_[gi] = 0;
    ALCOP_NEXT();
  }

  handle_wait: {
    const size_t gi = GroupIndex(id, op->group);
    const int32_t inst = sinst_[gi];
    const int32_t idx = wai_[gi] + (op->aux & 0xff);
    const int32_t cap = op->aux >> 8;  // baked max_commits
    if (static_cast<uint32_t>(idx) >= static_cast<uint32_t>(cap) ||
        !sdone_[ibase_[inst] + idx]) {
      a_.waiters[static_cast<size_t>(inst)].wait.push_back(
          {id, idx, s->time});
      goto pop_next;  // parked (counted at wake; see kPmuWaitParks contract)
    }
    const double t0 = s->time;
    s->time = std::max(s->time, scomplete_[ibase_[inst] + idx]) + sync_;
    Record(s->tb, s->warp, SpanKind::kSyncStall, t0, s->time);
    if constexpr (kPmu) {
      Pf(id)[kPmuWaitStall] += s->time - t0;
      // Scheduling-invariant park criterion (interpreter passes through
      // where this core parks): count data-not-ready, not physical parks.
      if (s->time - t0 > sync_) ++Pn(id)[kPmuWaitParks];
    }
    ++wai_[gi];
    ALCOP_NEXT();
  }

  handle_release: {
    const size_t gi = GroupIndex(id, op->group);
    const int32_t inst = sinst_[gi];
    const int32_t old = rel_[srel_[gi]]++;
    // The min over the release slots only moves when a slot at the min
    // advances; recounting then keeps the acquire check O(1).
    if (old == imin_[inst]) imin_[inst] = MinReleases(inst);
    s->time += half_sync_;
    WakeAcquireWaiters(inst, s->time);
    ALCOP_NEXT();
  }

  handle_barrier: {
    DrainSyncLoads(*s);
    ReplayArena::Barrier& barrier = a_.barriers[static_cast<size_t>(s->tb)];
    barrier.max_time = std::max(barrier.max_time, s->time);
    if (++barrier.arrived < p_.num_warps) {
      barrier.parked.emplace_back(id, s->time);
      if constexpr (kPmu) ++Pn(id)[kPmuBarrierArrivals];
      ++s->pc;  // the releaser advances everyone past the barrier
      goto pop_next;
    }
    const double resume = barrier.max_time + sync_;
    for (const auto& [parked_id, arrival] : barrier.parked) {
      Stream& parked = streams_[parked_id];
      Record(parked.tb, parked.warp, SpanKind::kBarrier, arrival, resume);
      if constexpr (kPmu) {
        Pf(parked_id)[kPmuBarrierStall] += resume - arrival;
      }
      parked.time = resume;
      Push(parked_id, resume);
    }
    barrier.parked.clear();
    barrier.arrived = 0;
    barrier.max_time = 0.0;
    Record(s->tb, s->warp, SpanKind::kBarrier, s->time, resume);
    if constexpr (kPmu) {
      ++Pn(id)[kPmuBarrierArrivals];
      Pf(id)[kPmuBarrierStall] += resume - s->time;
    }
    s->time = resume;
    ALCOP_NEXT();
  }

  done:
#undef ALCOP_NEXT
#undef ALCOP_DISPATCH
    double makespan = store_completion_;
    for (const ReplayArena::Stream& st : a_.streams) {
      makespan = std::max(makespan, st.time);
    }
    if constexpr (kTimeline) timeline_->makespan = makespan;
    if constexpr (kPmu) {
      AccumulatePmuStreams(pmu_out_, pf_, pn_, a_.streams.size());
    }
    for (const ReplayArena::Stream& st : a_.streams) {
      ALCOP_CHECK_EQ(st.pc, st.end)
          << "stream deadlocked at event "
          << (st.pc - p_.warp_begin[static_cast<size_t>(st.warp)]) << " (tb "
          << st.tb << ", warp " << st.warp << ")";
    }
    return makespan;
  }

 private:
  using Stream = ReplayArena::Stream;
  using Waiter = ReplayArena::Waiter;
  using HeapEntry = ReplayArena::HeapEntry;

  void Reset() {
    num_groups_ = p_.groups.size();
    const int warps = p_.num_warps;
    const int tbs = wave_.threadblocks;
    const size_t num_streams =
        static_cast<size_t>(tbs) * static_cast<size_t>(warps);

    a_.streams.resize(num_streams);
    for (int tb = 0; tb < tbs; ++tb) {
      for (int w = 0; w < warps; ++w) {
        Stream& s = a_.streams[static_cast<size_t>(tb * warps + w)];
        s.time = 0.0;
        s.pending_sync = 0.0;
        s.pc = p_.warp_begin[static_cast<size_t>(w)];
        s.end = p_.warp_begin[static_cast<size_t>(w) + 1];
        s.tb = tb;
        s.warp = w;
      }
    }
    const size_t counters = num_streams * num_groups_;
    a_.acquires.assign(counters, 0);
    a_.commits.assign(counters, 0);
    a_.waits.assign(counters, 0);
    a_.copy_max.assign(counters, 0.0);

    // Instance layout: threadblock-major, then group; a shared-scope group
    // owns one instance per tb (all warps participate), a register-scope
    // group one per (tb, warp).
    size_t per_tb_insts = 0, per_tb_slots = 0, per_tb_rel = 0;
    for (const MicroOpGroup& g : p_.groups) {
      per_tb_insts += g.tb_scope ? 1 : static_cast<size_t>(warps);
      per_tb_slots += static_cast<size_t>(g.max_commits) *
                      (g.tb_scope ? 1 : static_cast<size_t>(warps));
      per_tb_rel += static_cast<size_t>(warps);
    }
    const size_t num_insts = static_cast<size_t>(tbs) * per_tb_insts;
    a_.inst_min_rel.assign(num_insts, 0);
    a_.slot_commits.assign(static_cast<size_t>(tbs) * per_tb_slots, 0);
    a_.slot_partial_max.assign(static_cast<size_t>(tbs) * per_tb_slots, 0.0);
    a_.slot_complete.resize(static_cast<size_t>(tbs) *
                            per_tb_slots);  // written before read
    a_.slot_done.assign(static_cast<size_t>(tbs) * per_tb_slots, 0);
    a_.releases.assign(static_cast<size_t>(tbs) * per_tb_rel, 0);
    // Park lists and barriers only grow: shrinking them for a smaller
    // remainder wave would free inner lists the next full wave re-grows.
    // Each wave uses the prefix it needs.
    if (a_.waiters.size() < num_insts) a_.waiters.resize(num_insts);
    for (size_t i = 0; i < num_insts; ++i) {
      a_.waiters[i].wait.clear();
      a_.waiters[i].acquire.clear();
    }
    a_.inst_participants.resize(num_insts);
    a_.inst_slot_base.resize(num_insts);
    a_.inst_rel_base.resize(num_insts);
    int32_t inst = 0, slot = 0, rel = 0;
    for (int tb = 0; tb < tbs; ++tb) {
      for (const MicroOpGroup& g : p_.groups) {
        const int count = g.tb_scope ? 1 : warps;
        const int parts = g.tb_scope ? warps : 1;
        for (int i = 0; i < count; ++i) {
          a_.inst_participants[static_cast<size_t>(inst)] = parts;
          a_.inst_slot_base[static_cast<size_t>(inst)] = slot;
          a_.inst_rel_base[static_cast<size_t>(inst)] = rel;
          slot += static_cast<int32_t>(g.max_commits);
          rel += parts;
          ++inst;
        }
      }
    }
    // Pre-resolve (stream, group) -> instance id and release slot,
    // indexed like the per-stream counters.
    a_.stream_inst.resize(counters);
    a_.stream_rel.resize(counters);
    for (int tb = 0; tb < tbs; ++tb) {
      int32_t group_base = static_cast<int32_t>(tb * per_tb_insts);
      for (int w = 0; w < warps; ++w) {
        const size_t id = static_cast<size_t>(tb * warps + w);
        int32_t inst_cursor = group_base;
        for (size_t g = 0; g < num_groups_; ++g) {
          const MicroOpGroup& meta = p_.groups[g];
          const int32_t ginst = inst_cursor + (meta.tb_scope ? 0 : w);
          a_.stream_inst[id * num_groups_ + g] = ginst;
          a_.stream_rel[id * num_groups_ + g] =
              a_.inst_rel_base[static_cast<size_t>(ginst)] +
              (meta.tb_scope ? w : 0);
          inst_cursor += meta.tb_scope ? 1 : warps;
        }
      }
    }

    if (a_.barriers.size() < static_cast<size_t>(tbs)) {
      a_.barriers.resize(static_cast<size_t>(tbs));
    }
    for (size_t tb = 0; tb < static_cast<size_t>(tbs); ++tb) {
      ReplayArena::Barrier& barrier = a_.barriers[tb];
      barrier.arrived = 0;
      barrier.max_time = 0.0;
      barrier.parked.clear();
    }
    a_.heap.resize(num_streams);

    // Wave-scaled pool rows: [0..3] the raw operands, [4] op1 / llc
    // rate, [5] op2 / dram rate, [6] op1 / dram-write rate, [7] the PMU
    // payload (raw bytes / FLOPs).
    a_.pool_scaled.resize(p_.pool.size() * 8);
    for (size_t r = 0; r < p_.pool.size(); ++r) {
      const MicroOpOperands& v = p_.pool[r];
      double* d = a_.pool_scaled.data() + r * 8;
      d[0] = v.op0;
      d[1] = v.op1;
      d[2] = v.op2;
      d[3] = v.op3;
      d[4] = v.op1 / wave_.llc_rate;
      d[5] = v.op2 / wave_.dram_rate;
      d[6] = v.op1 / wave_.dram_write_rate;
      d[7] = v.payload;
    }

    // PMU accumulator rows — only when collecting, so a counter-free
    // replay never allocates them (the zero-allocation contract).
    if constexpr (kPmu) {
      a_.pmu_f64.assign(num_streams * kPmuF64Count, 0.0);
      a_.pmu_i64.assign(num_streams * kPmuI64Count, 0);
      a_.pmu_depth.assign(counters, 0);
      pf_ = a_.pmu_f64.data();
      pn_ = a_.pmu_i64.data();
      pd_ = a_.pmu_depth.data();
    }

    // Raw-pointer views for the hot loop (set after every resize above).
    ops_ = p_.ops.data();
    spool_ = a_.pool_scaled.data();
    streams_ = a_.streams.data();
    acq_ = a_.acquires.data();
    com_ = a_.commits.data();
    wai_ = a_.waits.data();
    cmax_ = a_.copy_max.data();
    sinst_ = a_.stream_inst.data();
    srel_ = a_.stream_rel.data();
    ipart_ = a_.inst_participants.data();
    ibase_ = a_.inst_slot_base.data();
    irel_ = a_.inst_rel_base.data();
    scommits_ = a_.slot_commits.data();
    spartial_ = a_.slot_partial_max.data();
    scomplete_ = a_.slot_complete.data();
    sdone_ = a_.slot_done.data();
    rel_ = a_.releases.data();
    imin_ = a_.inst_min_rel.data();
    tree_ = a_.heap.data();

    blocking_async_ = p_.blocking_async;
    sync_ = p_.sync_overhead_cycles;
    half_sync_ = p_.half_sync_overhead_cycles;
    store_completion_ = 0.0;
    llc_free_ = dram_free_ = dram_write_free_ = lds_free_ = 0.0;
    tc_free_[0] = tc_free_[1] = tc_free_[2] = tc_free_[3] = 0.0;
    // Everything starts at time 0, so descending ids in array order is
    // already a valid min-heap (ties pop id-descending).
    heap_size_ = num_streams;
    for (size_t i = 0; i < num_streams; ++i) {
      tree_[i].key =
          MakeKey(0.0, static_cast<int32_t>(num_streams - 1 - i));
    }
  }

  // ---- replace-top binary heap over packed keys: min time, ties to the
  // higher stream id (the interpreter's std::priority_queue<(-time, id)>
  // pop order; a strict total order, so any correct priority queue
  // reproduces it exactly). ----

  using Key = unsigned __int128;

  static Key MakeKey(double time, int32_t id) {
    // Stream times are non-negative finite doubles, whose IEEE bit
    // patterns order like the values; ~id in the low bits makes unsigned
    // key comparison exactly (time asc, id desc).
    uint64_t bits;
    std::memcpy(&bits, &time, sizeof(bits));
    return (static_cast<Key>(bits) << 32) |
           static_cast<uint32_t>(~static_cast<uint32_t>(id));
  }

  static int32_t KeyId(Key key) {
    return static_cast<int32_t>(~static_cast<uint32_t>(key));
  }

  // Sifts `e` down from the root (which is treated as a hole; the final
  // position gets the only store).
  void SiftRoot(Key e) {
    size_t i = 0;
    for (;;) {
      size_t child = 2 * i + 1;
      if (child >= heap_size_) break;
      const size_t right = child + 1;
      if (right < heap_size_ && tree_[right].key < tree_[child].key) {
        child = right;
      }
      if (tree_[child].key >= e) break;
      tree_[i] = tree_[child];
      i = child;
    }
    tree_[i].key = e;
  }

  void Push(int32_t id, double time) {
    const Key key = MakeKey(time, id);
    size_t i = heap_size_++;
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      const Key pk = tree_[parent].key;
      if (key >= pk) break;
      tree_[i].key = pk;
      i = parent;
    }
    tree_[i].key = key;
  }

  // ---- shared helpers ----

  size_t GroupIndex(int32_t stream, int group) const {
    return static_cast<size_t>(stream) * num_groups_ +
           static_cast<size_t>(group);
  }

  int32_t MinReleases(int32_t inst) const {
    const int32_t* r = rel_ + irel_[inst];
    const int n = ipart_[inst];
    int32_t min_rel = r[0];
    for (int i = 1; i < n; ++i) min_rel = std::min(min_rel, r[i]);
    return min_rel;
  }

  void Record(int tb, int warp, SpanKind kind, double start, double end) {
    if constexpr (kTimeline) {
      if (end <= start) return;
      timeline_->spans.push_back({tb, warp, kind, start, end});
    }
  }

  double GlobalTransfer(double t, const double* v, uint8_t flags, int tb) {
    double start = std::max(t, llc_free_);
    llc_free_ = start + v[4];  // op1 / llc rate, divided once per wave
    double completion = llc_free_;
    if (flags & kMicroOpHasDram) {
      double dram_start = std::max(t, dram_free_);
      dram_free_ = dram_start + v[5];  // op2 / dram rate
      completion = std::max(completion, dram_free_);
    }
    completion += v[3];
    Record(tb, -1, SpanKind::kTransfer, t, completion);
    return completion;
  }

  double SharedTransfer(double t, const double* v, int tb) {
    double start = std::max(t, lds_free_);
    lds_free_ = start + v[1];
    double completion = lds_free_ + v[2];
    Record(tb, -1, SpanKind::kTransfer, t, completion);
    return completion;
  }

  void DrainSyncLoads(Stream& s) {
    if (s.pending_sync > s.time) {
      Record(s.tb, s.warp, SpanKind::kBlockingCopy, s.time, s.pending_sync);
      if constexpr (kPmu) {
        const int32_t sid = static_cast<int32_t>(&s - streams_);
        Pf(sid)[kPmuExposedCopy] += s.pending_sync - s.time;
      }
      s.time = s.pending_sync;
    }
    s.pending_sync = 0.0;
  }

  // ---- PMU helpers (instantiated only when kPmu). Every expression
  // reads pre-resolved pool values the trace compiler produced with the
  // interpreter's own formulas, so the counters are bit-identical. ----

  double* Pf(int32_t id) {
    return pf_ + static_cast<size_t>(id) * kPmuF64Count;
  }
  int64_t* Pn(int32_t id) {
    return pn_ + static_cast<size_t>(id) * kPmuI64Count;
  }

  void PmuGlobalRead(int32_t id, const double* v, uint8_t flags) {
    double* f = Pf(id);
    f[kPmuCopyIssue] += v[0];
    f[kPmuLlcReadBytes] += v[7];  // payload: raw bytes
    ++Pn(id)[kPmuLlcReadTx];
    if (flags & kMicroOpHasDram) {
      f[kPmuDramReadBytes] += v[2];  // bytes * dram fraction
      ++Pn(id)[kPmuDramReadTx];
    }
  }

  void PmuSharedRead(int32_t id, const double* v) {
    double* f = Pf(id);
    f[kPmuCopyIssue] += v[0];
    f[kPmuLdsActive] += v[1];  // bytes / LDS rate
    f[kPmuLdsReadBytes] += v[7];
    ++Pn(id)[kPmuLdsReadTx];
  }

  void WakeWaitWaiters(int32_t inst, int64_t group_index) {
    std::vector<Waiter>& waiters = a_.waiters[static_cast<size_t>(inst)].wait;
    const double complete = scomplete_[ibase_[inst] + group_index];
    size_t keep = 0;
    for (size_t i = 0; i < waiters.size(); ++i) {
      const Waiter w = waiters[i];
      if (w.value != group_index) {
        waiters[keep++] = w;
        continue;
      }
      Stream& s = streams_[w.stream];
      const MicroOp& op = ops_[s.pc];
      s.time = std::max(w.park_time, complete) + sync_;
      Record(s.tb, s.warp, SpanKind::kSyncStall, w.park_time, s.time);
      if constexpr (kPmu) {
        Pf(w.stream)[kPmuWaitStall] += s.time - w.park_time;
        if (s.time - w.park_time > sync_) ++Pn(w.stream)[kPmuWaitParks];
      }
      ++wai_[GroupIndex(w.stream, op.group)];
      if (++s.pc < s.end) Push(w.stream, s.time);
    }
    waiters.resize(keep);
  }

  void WakeAcquireWaiters(int32_t inst, double release_time) {
    std::vector<Waiter>& waiters =
        a_.waiters[static_cast<size_t>(inst)].acquire;
    if (waiters.empty()) return;
    const int64_t min_rel = imin_[inst];
    size_t keep = 0;
    for (size_t i = 0; i < waiters.size(); ++i) {
      const Waiter w = waiters[i];
      if (w.value > min_rel) {
        waiters[keep++] = w;
        continue;
      }
      Stream& s = streams_[w.stream];
      const MicroOp& op = ops_[s.pc];
      s.time = std::max(w.park_time, release_time) + sync_;
      Record(s.tb, s.warp, SpanKind::kSyncStall, w.park_time, s.time);
      if constexpr (kPmu) {
        Pf(w.stream)[kPmuAcquireStall] += s.time - w.park_time;
      }
      ++acq_[GroupIndex(w.stream, op.group)];
      if (++s.pc < s.end) Push(w.stream, s.time);
    }
    waiters.resize(keep);
  }

  const MicroOpProgram& p_;
  const ReplayWave& wave_;
  ReplayArena& a_;
  Timeline* timeline_;
  PmuCounters* pmu_out_;

  // Raw-pointer views into the arena (valid between Reset and Run's end).
  const MicroOp* ops_ = nullptr;
  const double* spool_ = nullptr;  // wave-scaled pool rows, 8 doubles each
  Stream* streams_ = nullptr;
  int32_t* acq_ = nullptr;
  int32_t* com_ = nullptr;
  int32_t* wai_ = nullptr;
  double* cmax_ = nullptr;
  const int32_t* sinst_ = nullptr;
  const int32_t* srel_ = nullptr;
  const int32_t* ipart_ = nullptr;
  const int32_t* ibase_ = nullptr;
  const int32_t* irel_ = nullptr;
  int32_t* scommits_ = nullptr;
  double* spartial_ = nullptr;
  double* scomplete_ = nullptr;
  uint8_t* sdone_ = nullptr;
  int32_t* rel_ = nullptr;
  int32_t* imin_ = nullptr;
  HeapEntry* tree_ = nullptr;
  double* pf_ = nullptr;    // PMU f64 rows (kPmu only)
  int64_t* pn_ = nullptr;   // PMU i64 rows (kPmu only)
  int32_t* pd_ = nullptr;   // PMU per-(stream, group) in-flight depth
  bool blocking_async_ = false;
  double sync_ = 0.0;       // p_.sync_overhead_cycles
  double half_sync_ = 0.0;  // p_.half_sync_overhead_cycles

  size_t num_groups_ = 0;
  size_t heap_size_ = 0;
  double store_completion_ = 0.0;
  double tc_free_[4] = {0.0, 0.0, 0.0, 0.0};
  double lds_free_ = 0.0;
  double llc_free_ = 0.0;
  double dram_free_ = 0.0;
  double dram_write_free_ = 0.0;
};

}  // namespace

double ReplayBatch(const MicroOpProgram& program, const ReplayWave& wave,
                   ReplayArena* arena, Timeline* timeline, PmuCounters* pmu) {
  ALCOP_CHECK_GT(wave.threadblocks, 0);
  ALCOP_CHECK(arena != nullptr);
  if (timeline == nullptr) {
    if (pmu == nullptr) {
      return Replayer<false, false>(program, wave, *arena, nullptr, nullptr)
          .Run();
    }
    return Replayer<false, true>(program, wave, *arena, nullptr, pmu).Run();
  }
  if (pmu == nullptr) {
    return Replayer<true, false>(program, wave, *arena, timeline, nullptr)
        .Run();
  }
  return Replayer<true, true>(program, wave, *arena, timeline, pmu).Run();
}

}  // namespace sim
}  // namespace alcop
