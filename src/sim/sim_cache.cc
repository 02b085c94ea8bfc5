#include "sim/sim_cache.h"

#include <cstdlib>
#include <list>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "obs/metrics.h"

namespace alcop {
namespace sim {

namespace {

// Flat charge per map node for the parts the entry cannot see (bucket
// array share, node header, recency-list node). Keeps the byte gauges
// honest without chasing allocator internals; the budget tests only rely
// on the charge being applied symmetrically on insert and evict.
constexpr uint64_t kEntryOverheadBytes = 64;

// One recency list for both layers, least recently used at the front.
// A node names its entry by the key stored in that layer's map
// (unordered_map nodes never move, so the pointer stays valid).
struct LruNode {
  const std::string* key;
  bool program;  // which layer's map holds the entry
};
using LruList = std::list<LruNode>;

// Cached entries carry their recency-list position and their exact byte
// charge, so eviction refunds precisely what insertion charged.
struct TimingEntry {
  KernelTiming timing;
  LruList::iterator lru;
  uint64_t bytes = 0;
};

struct ProgramEntry {
  std::shared_ptr<const SimProgram> program;
  LruList::iterator lru;
  uint64_t bytes = 0;
};

uint64_t TimingEntryBytes(const std::string& key, const KernelTiming& timing) {
  return static_cast<uint64_t>(key.capacity() + timing.reason.capacity() +
                               sizeof(TimingEntry)) +
         kEntryOverheadBytes;
}

uint64_t ProgramEntryBytes(const std::string& key, const SimProgram& program) {
  // program.MemoryBytes() is the per-config footprint only; the shared
  // skeleton is charged once, while cached programs reference it.
  return static_cast<uint64_t>(key.capacity() + program.MemoryBytes() +
                               sizeof(ProgramEntry)) +
         kEntryOverheadBytes;
}

// All cache state — maps, recency list and counters — is guarded by one
// mutex: a hit/miss/eviction is counted in the same critical section that
// observes or mutates the maps, so a stats snapshot is linearizable.
struct Cache {
  std::mutex mu;
  std::unordered_map<std::string, TimingEntry> timings;
  // Phase-1 layer: shared so callers can keep replaying an entry after
  // the lock is dropped (and across a Reset or an eviction).
  std::unordered_map<std::string, ProgramEntry> programs;
  LruList lru;
  // How many cached programs reference each skeleton: its bytes are
  // charged at the first reference and refunded at the last.
  std::unordered_map<const MicroOpSkeleton*, uint64_t> skeleton_refs;
  // Counters kept exact by every hit, miss, insert and eviction (the
  // entry counts and the budget are filled in by GetSimCacheStats).
  SimCacheStats stats;
  uint64_t budget_bytes = 0;  // 0 = unbounded; survives ResetSimCache
};

Cache& GlobalCache() {
  static Cache* cache = [] {
    auto* c = new Cache();  // leaked: outlives all threads
    if (const char* env = std::getenv("ALCOP_CACHE_BYTES")) {
      char* end = nullptr;
      unsigned long long parsed = std::strtoull(env, &end, 10);
      if (end != env && *end == '\0') {
        c->budget_bytes = static_cast<uint64_t>(parsed);
      }
    }
    // Absorb the cache counters into the process-wide metrics registry
    // (read-on-dump; each callback takes a full consistent snapshot).
    obs::Registry& registry = obs::Registry::Global();
    registry.RegisterCallback("sim.cache.timing.hits", [] {
      return static_cast<double>(GetSimCacheStats().hits);
    },
    "Timing-cache lookups answered from memory.");
    registry.RegisterCallback("sim.cache.timing.misses", [] {
      return static_cast<double>(GetSimCacheStats().misses);
    },
    "Timing-cache lookups that had to simulate.");
    registry.RegisterCallback("sim.cache.timing.entries", [] {
      return static_cast<double>(GetSimCacheStats().entries);
    },
    "Resident timing-cache entries.");
    registry.RegisterCallback("sim.cache.program.hits", [] {
      return static_cast<double>(GetSimCacheStats().program_hits);
    },
    "Program-cache lookups answered from memory.");
    registry.RegisterCallback("sim.cache.program.misses", [] {
      return static_cast<double>(GetSimCacheStats().program_misses);
    },
    "Program-cache lookups that had to compile.");
    registry.RegisterCallback("sim.cache.program.entries", [] {
      return static_cast<double>(GetSimCacheStats().program_entries);
    },
    "Resident compiled SimPrograms.");
    registry.RegisterCallback("sim.cache.program.bytes", [] {
      return static_cast<double>(GetSimCacheStats().program_bytes);
    },
    "Bytes held by resident SimPrograms.");
    registry.RegisterCallback("sim.cache.program.skeletons", [] {
      return static_cast<double>(GetSimCacheStats().program_skeletons);
    },
    "Interned program skeletons.");
    registry.RegisterCallback("sim.cache.program.skeleton_bytes", [] {
      return static_cast<double>(GetSimCacheStats().skeleton_bytes);
    },
    "Bytes held by interned skeletons.");
    registry.RegisterCallback("sim.cache.evictions", [] {
      return static_cast<double>(GetSimCacheStats().evictions);
    },
    "LRU evictions across both cache layers.");
    registry.RegisterCallback("sim.cache.resident_bytes", [] {
      return static_cast<double>(GetSimCacheStats().resident_bytes);
    },
    "Total resident bytes across both cache layers.");
    registry.RegisterCallback("sim.cache.budget_bytes", [] {
      return static_cast<double>(GetSimCacheStats().budget_bytes);
    },
    "Configured cache byte budget (0 = unlimited).");
    registry.RegisterCallback("sim.cache.disk.hits", [] {
      return static_cast<double>(GetSimCacheStats().disk_hits);
    },
    "On-disk cache frames accepted at load.");
    registry.RegisterCallback("sim.cache.disk.misses", [] {
      return static_cast<double>(GetSimCacheStats().disk_misses);
    },
    "On-disk cache frames rejected or absent.");
    registry.RegisterCallback("sim.cache.disk.load_bytes", [] {
      return static_cast<double>(GetSimCacheStats().disk_load_bytes);
    },
    "Bytes loaded from the on-disk cache.");
    return c;
  }();
  return *cache;
}

ReplayArena& CacheThreadArena() {
  thread_local ReplayArena arena;
  return arena;
}

// Marks an entry most recently used.
void Touch(Cache& cache, LruList::iterator node) {
  cache.lru.splice(cache.lru.end(), cache.lru, node);
}

// Charges (insert) or refunds (evict) a program entry. Its skeleton's
// bytes move only at the skeleton's first and last cached reference.
void AccountProgram(Cache& cache, const ProgramEntry& entry, bool charge) {
  auto apply = [charge](uint64_t& counter, uint64_t bytes) {
    counter = charge ? counter + bytes : counter - bytes;
  };
  SimCacheStats& s = cache.stats;
  const auto own = static_cast<uint64_t>(entry.program->MemoryBytes());
  apply(s.program_bytes, own);
  apply(s.program_bytes_unshared, own);
  apply(s.resident_bytes, entry.bytes);
  const MicroOpSkeleton* skeleton = entry.program->program.skeleton.get();
  if (skeleton == nullptr) return;
  const auto shared = static_cast<uint64_t>(skeleton->MemoryBytes());
  apply(s.program_bytes_unshared, shared);
  uint64_t& refs = cache.skeleton_refs[skeleton];
  if (charge ? refs++ == 0 : --refs == 0) {
    apply(s.skeleton_bytes, shared);
    apply(s.resident_bytes, shared);
  }
  if (refs == 0) cache.skeleton_refs.erase(skeleton);
}

// Pops least-recently-used entries of either layer until the resident
// footprint fits the budget. Entries under `keep` — the key just
// inserted — are skipped, so an insert never evicts itself. Caller holds
// the cache mutex.
void EvictOverBudget(Cache& cache, const std::string& keep) {
  SimCacheStats& s = cache.stats;
  auto node = cache.lru.begin();
  while (cache.budget_bytes != 0 && s.resident_bytes > cache.budget_bytes &&
         node != cache.lru.end()) {
    auto victim = node++;
    if (*victim->key == keep) continue;
    if (victim->program) {
      auto it = cache.programs.find(*victim->key);
      AccountProgram(cache, it->second, /*charge=*/false);
      cache.lru.erase(victim);
      cache.programs.erase(it);
      ++s.program_evictions;
    } else {
      auto it = cache.timings.find(*victim->key);
      s.timing_bytes -= it->second.bytes;
      s.resident_bytes -= it->second.bytes;
      cache.lru.erase(victim);
      cache.timings.erase(it);
      ++s.timing_evictions;
    }
    ++s.evictions;
  }
}

// Inserts unless `key` is already resident (a racing miss or a live
// entry wins), then enforces the budget. Returns the resident program.
// Caller holds the cache mutex.
std::shared_ptr<const SimProgram> InsertProgram(
    Cache& cache, const std::string& key,
    std::shared_ptr<const SimProgram> program) {
  auto [it, inserted] = cache.programs.try_emplace(key);
  ProgramEntry& entry = it->second;
  if (!inserted) return entry.program;
  entry.program = std::move(program);
  entry.bytes = ProgramEntryBytes(it->first, *entry.program);
  entry.lru = cache.lru.insert(cache.lru.end(), {&it->first, true});
  AccountProgram(cache, entry, /*charge=*/true);
  EvictOverBudget(cache, key);
  return entry.program;
}

void InsertTiming(Cache& cache, const std::string& key,
                  const KernelTiming& timing) {
  auto [it, inserted] = cache.timings.try_emplace(key);
  if (!inserted) return;
  TimingEntry& entry = it->second;
  entry.timing = timing;
  entry.bytes = TimingEntryBytes(it->first, timing);
  entry.lru = cache.lru.insert(cache.lru.end(), {&it->first, false});
  cache.stats.timing_bytes += entry.bytes;
  cache.stats.resident_bytes += entry.bytes;
  EvictOverBudget(cache, key);
}

}  // namespace

std::string SimCacheKey(const schedule::GemmOp& op,
                        const schedule::ScheduleConfig& config,
                        const target::GpuSpec& spec,
                        schedule::InlineOrder inline_order) {
  std::ostringstream out;
  out << schedule::OpFamilyName(op.family) << '|' << op.batch << 'x' << op.m
      << 'x' << op.n << 'x' << op.k << '|'
      << static_cast<int>(op.a_producer_op) << ':' << op.a_producer_param
      << '|' << static_cast<int>(op.epilogue_op) << ':' << op.epilogue_param
      << '|' << config.ToString() << '|' << static_cast<int>(inline_order)
      // Every rate/limit of the device model: benches tweak spec fields in
      // place (generation studies), so the name alone is not a key.
      << '|' << spec.num_sms << ',' << spec.clock_ghz << ','
      << spec.tc_flops_per_sm_per_cycle << ',' << spec.lds_bytes_per_cycle_per_sm
      << ',' << spec.bank_conflict_factor << ',' << spec.smem_latency_cycles
      << ',' << spec.copy_issue_bytes_per_cycle << ',' << spec.llc_bytes << ','
      << spec.llc_bw_bytes_per_cycle << ',' << spec.llc_latency_cycles << ','
      << spec.dram_bw_bytes_per_cycle << ',' << spec.dram_write_bw_bytes_per_cycle
      << ',' << spec.dram_latency_cycles << ',' << spec.smem_bytes_per_sm << ','
      << spec.regfile_bytes_per_sm << ',' << spec.max_warps_per_sm << ','
      << spec.sync_overhead_cycles << ',' << spec.launch_overhead_cycles << ','
      << spec.has_cp_async;
  return out.str();
}

std::shared_ptr<const SimProgram> CachedSimProgram(
    const schedule::GemmOp& op, const schedule::ScheduleConfig& config,
    const target::GpuSpec& spec, schedule::InlineOrder inline_order) {
  Cache& cache = GlobalCache();
  std::string key = SimCacheKey(op, config, spec, inline_order);
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    auto it = cache.programs.find(key);
    if (it != cache.programs.end()) {
      ++cache.stats.program_hits;
      Touch(cache, it->second.lru);
      return it->second.program;
    }
  }
  // Compile outside the lock so concurrent misses do not serialize the
  // expensive work.
  auto program = std::make_shared<const SimProgram>(
      CompileSimProgram(op, config, spec, inline_order));
  std::lock_guard<std::mutex> lock(cache.mu);
  // The miss is counted where the map changes, under the same lock, so a
  // concurrent stats snapshot never sees an entry without its miss.
  ++cache.stats.program_misses;
  return InsertProgram(cache, key, std::move(program));
}

bool ProbeCachedTiming(const schedule::GemmOp& op,
                       const schedule::ScheduleConfig& config,
                       const target::GpuSpec& spec,
                       schedule::InlineOrder inline_order, KernelTiming* out) {
  Cache& cache = GlobalCache();
  std::string key = SimCacheKey(op, config, spec, inline_order);
  std::lock_guard<std::mutex> lock(cache.mu);
  auto it = cache.timings.find(key);
  if (it == cache.timings.end()) return false;
  ++cache.stats.hits;
  Touch(cache, it->second.lru);
  if (out != nullptr) *out = it->second.timing;
  return true;
}

KernelTiming CachedCompileAndSimulate(const schedule::GemmOp& op,
                                      const schedule::ScheduleConfig& config,
                                      const target::GpuSpec& spec,
                                      schedule::InlineOrder inline_order) {
  Cache& cache = GlobalCache();
  std::string key = SimCacheKey(op, config, spec, inline_order);
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    auto it = cache.timings.find(key);
    if (it != cache.timings.end()) {
      ++cache.stats.hits;
      Touch(cache, it->second.lru);
      return it->second.timing;
    }
  }
  // A timing miss still reuses phase 1 through the program layer: only
  // the cheap bytecode replay runs outside the lock.
  std::shared_ptr<const SimProgram> program =
      CachedSimProgram(op, config, spec, inline_order);
  KernelTiming timing = ReplaySimProgram(*program, &CacheThreadArena());
  std::lock_guard<std::mutex> lock(cache.mu);
  ++cache.stats.misses;
  InsertTiming(cache, key, timing);
  return timing;
}

SimCacheStats GetSimCacheStats() {
  Cache& cache = GlobalCache();
  std::lock_guard<std::mutex> lock(cache.mu);
  SimCacheStats stats = cache.stats;
  stats.entries = cache.timings.size();
  stats.program_entries = cache.programs.size();
  stats.program_skeletons = cache.skeleton_refs.size();
  stats.budget_bytes = cache.budget_bytes;
  return stats;
}

void ResetSimCache() {
  Cache& cache = GlobalCache();
  {
    // Maps and counters are cleared under the one lock, so a concurrent
    // snapshot sees either the whole pre-reset or the whole post-reset
    // state, never a mix.
    std::lock_guard<std::mutex> lock(cache.mu);
    cache.timings.clear();
    cache.programs.clear();
    cache.lru.clear();
    cache.skeleton_refs.clear();
    cache.stats = SimCacheStats();
  }
  // A cold cache should also mean cold structure-sharing stats: forget
  // the interned skeletons too (in-flight programs keep theirs alive
  // through their shared_ptrs).
  ResetSkeletonPool();
}

void SetSimCacheBudgetBytes(uint64_t bytes) {
  Cache& cache = GlobalCache();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.budget_bytes = bytes;
}

uint64_t GetSimCacheBudgetBytes() {
  Cache& cache = GlobalCache();
  std::lock_guard<std::mutex> lock(cache.mu);
  return cache.budget_bytes;
}

std::vector<std::pair<std::string, KernelTiming>> SnapshotCachedTimings() {
  Cache& cache = GlobalCache();
  std::vector<std::pair<std::string, KernelTiming>> out;
  std::lock_guard<std::mutex> lock(cache.mu);
  out.reserve(cache.timings.size());
  for (const auto& [key, entry] : cache.timings) {
    out.emplace_back(key, entry.timing);
  }
  return out;
}

std::vector<std::pair<std::string, std::shared_ptr<const SimProgram>>>
SnapshotCachedPrograms() {
  Cache& cache = GlobalCache();
  std::vector<std::pair<std::string, std::shared_ptr<const SimProgram>>> out;
  std::lock_guard<std::mutex> lock(cache.mu);
  out.reserve(cache.programs.size());
  for (const auto& [key, entry] : cache.programs) {
    out.emplace_back(key, entry.program);
  }
  return out;
}

void InsertCachedTiming(const std::string& key, const KernelTiming& timing) {
  Cache& cache = GlobalCache();
  std::lock_guard<std::mutex> lock(cache.mu);
  InsertTiming(cache, key, timing);
}

void InsertCachedProgram(const std::string& key,
                         std::shared_ptr<const SimProgram> program) {
  if (program == nullptr) return;
  Cache& cache = GlobalCache();
  std::lock_guard<std::mutex> lock(cache.mu);
  InsertProgram(cache, key, std::move(program));
}

void AddSimCacheDiskStats(uint64_t hits, uint64_t misses,
                          uint64_t load_bytes) {
  Cache& cache = GlobalCache();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.stats.disk_hits += hits;
  cache.stats.disk_misses += misses;
  cache.stats.disk_load_bytes += load_bytes;
}

}  // namespace sim
}  // namespace alcop
