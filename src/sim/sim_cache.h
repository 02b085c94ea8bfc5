// Process-wide memoization of the two-phase simulate pipeline.
//
// Tuning sweeps re-measure identical (operator, schedule, device) triples
// constantly: every search strategy walks the same enumerated space, and
// the benchmark binaries re-run strategies over multiple seeds and trial
// budgets. Compiling and simulating a kernel is pure — the same inputs
// always produce the same KernelTiming — so the cache maps a canonical
// text key to that KernelTiming:
//
//   op(family, batch, m, n, k, producer, epilogue) |
//   ScheduleConfig::ToString() | InlineOrder | every GpuSpec rate/limit
//
// with every double printed round-trip exact (%.17g). A miss compiles the
// triple (CompileSimProgram), replays the program once through a
// thread-local arena and drops it: every consumer — the tuner, the
// benches and alcopd's compile — reads only the timing, so compiled
// programs are never kept.
//
// The cache is thread-safe behind one mutex. Compiles and replays run
// outside it: concurrent misses on the same key may both compile (the
// race is benign — both compute the same value and the first insert
// wins). Every counter — hits, misses, evictions, entry and byte counts —
// is kept exact by the critical section that touches the map, so
// GetSimCacheStats() copies them and is linearizable against concurrent
// sweeps and resets (hammered by the TSan-covered snapshot test). They
// feed the throughput benches, the cache tests, and the obs metrics
// registry (`sim.cache.*` callback gauges).
//
// Residency is bounded: under an ALCOP_CACHE_BYTES budget (or
// SetSimCacheBudgetBytes) the cache evicts least-recently-used entries.
// A hit moves its entry to the back of the one recency list; an insert
// that pushes the resident footprint (each entry's key, reason string and
// node, counted exactly) over budget pops entries from the front until it
// fits, never the entry just inserted.
//
// The persistence layer (serving/persist.h) round-trips the timings
// through SnapshotCachedTimings and InsertCachedTiming; its disk
// hit/miss/byte counters are carried here so `sim.cache.disk.*` renders
// alongside the in-memory gauges.
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
  // Always 0: the cache keeps no programs. Kept because perfbench reads it.
  uint64_t program_entries = 0;
  // Always 0: the cache keeps no programs. Kept because perfbench reads it.
  uint64_t program_skeletons = 0;

  // LRU accounting: resident_bytes is what the budget bounds.
  uint64_t resident_bytes = 0;
  uint64_t budget_bytes = 0;  // 0 = unbounded
  uint64_t evictions = 0;

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
};

// The canonical cache key (exposed for tests).
std::string SimCacheKey(const schedule::GemmOp& op,
                        const schedule::ScheduleConfig& config,
                        const target::GpuSpec& spec,
                        schedule::InlineOrder inline_order);

// An uncached CompileSimProgram, kept only because perfbench calls it.
std::shared_ptr<const SimProgram> CachedSimProgram(
    const schedule::GemmOp& op, const schedule::ScheduleConfig& config,
    const target::GpuSpec& spec,
    schedule::InlineOrder inline_order =
        schedule::InlineOrder::kAfterPipelining);

// Lookup-only probe of the cache: fills `out` and counts a hit
// (with an LRU touch) when the triple is cached; counts nothing when
// absent — the caller's eventual CachedCompileAndSimulate counts the
// miss. The serving fast lane uses this to route cache-hot requests
// without ever paying a compile on the latency-critical path.
bool ProbeCachedTiming(const schedule::GemmOp& op,
                       const schedule::ScheduleConfig& config,
                       const target::GpuSpec& spec,
                       schedule::InlineOrder inline_order,
                       KernelTiming* out);

// CompileAndSimulate through the process-wide cache.
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

// A consistent copy of every entry under the cache lock, for
// serialization.
std::vector<std::pair<std::string, KernelTiming>> SnapshotCachedTimings();

// Seed an entry loaded from disk. Counts neither hit nor miss (the disk
// layer has its own counters); an existing in-memory entry for the key
// wins — the live cache is never clobbered by a stale load. Subject to
// the same LRU budget as compiled entries.
void InsertCachedTiming(const std::string& key, const KernelTiming& timing);

// Accumulates persistent-store counters into the sim.cache.disk.* gauges
// (called by the persistence layer, read by stats snapshots).
void AddSimCacheDiskStats(uint64_t hits, uint64_t misses,
                          uint64_t load_bytes);

}  // namespace sim
}  // namespace alcop

#endif  // ALCOP_SIM_SIM_CACHE_H_
