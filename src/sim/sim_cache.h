// Process-wide memoization of the two-phase simulate pipeline.
//
// Tuning sweeps re-measure identical (operator, schedule, device) triples
// constantly: every search strategy walks the same enumerated space, and
// the benchmark binaries re-run strategies over multiple seeds and trial
// budgets. Compiling and simulating a kernel is pure — the same inputs
// always produce the same KernelTiming — so both phases are cached under
// a canonical text key:
//
//   op(family, batch, m, n, k, producer, epilogue) |
//   ScheduleConfig::ToString() | InlineOrder | every GpuSpec rate/limit
//
// Two layers share that key:
//   - the *program* layer memoizes phase 1 (CompileSimProgram): the
//     trace-compiled micro-op program plus launch geometry, held by
//     shared_ptr so entries stay valid while callers replay them;
//   - the *timing* layer memoizes the end result (phase 1 + phase 2). A
//     timing miss pulls the program through the program layer and only
//     pays the cheap bytecode replay, so even cold timing sweeps
//     amortize the IR walk across waves/specs that share a program.
//
// The cache is thread-safe behind one mutex. Compiles and replays run
// outside it: concurrent misses on the same key may both compile (the
// race is benign — both compute the same value and the first insert
// wins; the later one shares it). Every counter — hits, misses,
// evictions, entry and byte counts — is kept exact by the critical
// section that touches the maps, so GetSimCacheStats() copies them and is
// linearizable against concurrent sweeps and resets (hammered by the
// TSan-covered snapshot test). They feed the throughput benches, the
// cache tests, and the obs metrics registry (`sim.cache.*` callback
// gauges).
//
// Residency is bounded: under an ALCOP_CACHE_BYTES budget (or
// SetSimCacheBudgetBytes) both layers evict least-recently-used entries.
// One recency list orders the entries of both layers; a hit on either
// layer moves its entry to the back. An insert that pushes the resident
// footprint — timing entries + per-config program tables + each skeleton
// a cached program references, counted once — over budget pops entries
// from the front until it fits, skipping the inserting key's own
// entries. The cache counts its program references per skeleton, so
// evicting a skeleton's last cached program refunds the skeleton's bytes
// at once. Shared-ptr hand-out makes eviction safe against in-flight
// replays, and warm replay stays zero-allocation: eviction only drops
// ownership, it never touches a caller's ReplayArena.
//
// The persistence layer (serving/persist.h) round-trips both layers
// through SnapshotCachedTimings/SnapshotCachedPrograms and the
// InsertCached* entry points; its disk hit/miss/byte counters are
// carried here so `sim.cache.disk.*` renders alongside the in-memory
// gauges.
#ifndef ALCOP_SIM_SIM_CACHE_H_
#define ALCOP_SIM_SIM_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/launch.h"

namespace alcop {
namespace sim {

struct SimCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t entries = 0;
  // Program (phase-1) layer counters.
  uint64_t program_hits = 0;
  uint64_t program_misses = 0;
  uint64_t program_entries = 0;
  uint64_t program_bytes = 0;  // per-config footprint (patch tables etc.)
  // Structure sharing: distinct skeletons referenced by the cached
  // programs, and their footprint counted once each (configs that differ
  // only numerically share one skeleton, so program_skeletons <<
  // program_entries on a tuning sweep — the bytes-per-config win).
  uint64_t program_skeletons = 0;
  uint64_t skeleton_bytes = 0;
  // What the program layer would weigh if every entry held a private copy
  // of its skeleton (the pre-sharing layout): program_bytes plus each
  // program's skeleton counted once *per program*. The sharing gain the
  // throughput bench reports is program_bytes_unshared /
  // (program_bytes + skeleton_bytes).
  uint64_t program_bytes_unshared = 0;

  // LRU accounting. timing_bytes is the timing layer's footprint (keys,
  // reasons, entry structs); resident_bytes is what the budget bounds:
  // timing_bytes + program-layer bytes (keys + patch tables) +
  // skeleton_bytes — each skeleton counted once, and only while a cached
  // program references it.
  uint64_t timing_bytes = 0;
  uint64_t resident_bytes = 0;
  uint64_t budget_bytes = 0;  // 0 = unbounded
  uint64_t evictions = 0;     // timing_evictions + program_evictions
  uint64_t timing_evictions = 0;
  uint64_t program_evictions = 0;

  // Persistent-store counters (maintained by serving/persist.cc via
  // AddSimCacheDiskStats): entries served from / missing in the on-disk
  // cache, and payload bytes deserialized on load.
  uint64_t disk_hits = 0;
  uint64_t disk_misses = 0;
  uint64_t disk_load_bytes = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
  double ProgramHitRate() const {
    uint64_t total = program_hits + program_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(program_hits) /
                            static_cast<double>(total);
  }
};

// The canonical cache key (exposed for tests).
std::string SimCacheKey(const schedule::GemmOp& op,
                        const schedule::ScheduleConfig& config,
                        const target::GpuSpec& spec,
                        schedule::InlineOrder inline_order);

// Phase 1 through the program layer: the trace-compiled SimProgram for
// the triple, shared with every other caller of the same key (never
// null; infeasible schedules yield a cached infeasible program).
std::shared_ptr<const SimProgram> CachedSimProgram(
    const schedule::GemmOp& op, const schedule::ScheduleConfig& config,
    const target::GpuSpec& spec,
    schedule::InlineOrder inline_order =
        schedule::InlineOrder::kAfterPipelining);

// Lookup-only probe of the timing layer: fills `out` and counts a hit
// (with an LRU touch) when the triple is cached; counts nothing when
// absent — the caller's eventual CachedCompileAndSimulate counts the
// miss. The serving fast lane uses this to route cache-hot requests
// without ever paying a compile on the latency-critical path.
bool ProbeCachedTiming(const schedule::GemmOp& op,
                       const schedule::ScheduleConfig& config,
                       const target::GpuSpec& spec,
                       schedule::InlineOrder inline_order,
                       KernelTiming* out);

// CompileAndSimulate through the process-wide cache. A timing miss
// replays the (cached) program rather than re-walking the IR.
KernelTiming CachedCompileAndSimulate(
    const schedule::GemmOp& op, const schedule::ScheduleConfig& config,
    const target::GpuSpec& spec,
    schedule::InlineOrder inline_order =
        schedule::InlineOrder::kAfterPipelining);

// Snapshot of the global counters and entry count.
SimCacheStats GetSimCacheStats();

// Drops every entry and zeroes the counters (tests and benches that need
// a cold cache). The byte budget itself is NOT reset — it is
// configuration, not state.
void ResetSimCache();

// ---------------------------------------------------------------------------
// Residency budget.
// ---------------------------------------------------------------------------

// Caps the resident footprint (see SimCacheStats::resident_bytes). 0
// disables eviction. The initial value comes from the ALCOP_CACHE_BYTES
// environment variable (unset/unparsable = unbounded); SetSimCacheBudget-
// Bytes overrides it at runtime and applies to subsequent inserts.
void SetSimCacheBudgetBytes(uint64_t bytes);
uint64_t GetSimCacheBudgetBytes();

// ---------------------------------------------------------------------------
// Persistence hooks (serving/persist.h).
// ---------------------------------------------------------------------------

// Consistent copies of each layer under the cache lock, for
// serialization. Program entries are shared_ptrs, so a snapshot stays
// valid while eviction proceeds underneath it.
std::vector<std::pair<std::string, KernelTiming>> SnapshotCachedTimings();
std::vector<std::pair<std::string, std::shared_ptr<const SimProgram>>>
SnapshotCachedPrograms();

// Seed an entry loaded from disk. Counts neither hit nor miss (the disk
// layer has its own counters); an existing in-memory entry for the key
// wins — the live cache is never clobbered by a stale load. Subject to
// the same LRU budget as compiled entries.
void InsertCachedTiming(const std::string& key, const KernelTiming& timing);
void InsertCachedProgram(const std::string& key,
                         std::shared_ptr<const SimProgram> program);

// Accumulates persistent-store counters into the sim.cache.disk.* gauges
// (called by the persistence layer, read by stats snapshots).
void AddSimCacheDiskStats(uint64_t hits, uint64_t misses,
                          uint64_t load_bytes);

}  // namespace sim
}  // namespace alcop

#endif  // ALCOP_SIM_SIM_CACHE_H_
