#include "sim/sim_cache.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "obs/metrics.h"
#include "support/check.h"
#include "support/json.h"

namespace alcop {
namespace sim {

namespace {

// Flat charge per map node for the parts the entry cannot see (bucket
// array share, node header, recency-list node). Keeps the byte gauges
// honest without chasing allocator internals; the budget tests only rely
// on the charge being applied symmetrically on insert and evict.
constexpr uint64_t kEntryOverheadBytes = 64;

// Recency list, least recently used at the front. A node names its entry
// by the map's key (unordered_map nodes never move, so the pointer stays
// valid).
using LruList = std::list<const std::string*>;

// Cached entries carry their recency-list position and their exact byte
// charge, so eviction refunds precisely what insertion charged.
struct TimingEntry {
  KernelTiming timing;
  LruList::iterator lru;
  uint64_t bytes = 0;
};

uint64_t TimingEntryBytes(const std::string& key, const KernelTiming& timing) {
  return static_cast<uint64_t>(key.capacity() + timing.reason.capacity() +
                               sizeof(TimingEntry)) +
         kEntryOverheadBytes;
}

// All cache state — map, recency list and counters — is guarded by one
// mutex: a hit/miss/eviction is counted in the same critical section that
// observes or mutates the map, so a stats snapshot is linearizable.
struct Cache {
  std::mutex mu;
  std::unordered_map<std::string, TimingEntry> timings;
  LruList lru;
  // Counters kept exact by every hit, miss, insert and eviction (the
  // entry count and the budget are filled in by GetSimCacheStats).
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
    registry.RegisterCallback("sim.cache.evictions", [] {
      return static_cast<double>(GetSimCacheStats().evictions);
    },
    "LRU evictions of timing-cache entries.");
    registry.RegisterCallback("sim.cache.resident_bytes", [] {
      return static_cast<double>(GetSimCacheStats().resident_bytes);
    },
    "Resident bytes of the timing cache.");
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

// Answers a lookup from the map, counting a hit and marking the entry
// most recently used. Caller holds the cache mutex.
bool Lookup(Cache& cache, const std::string& key, KernelTiming* out) {
  auto it = cache.timings.find(key);
  if (it == cache.timings.end()) return false;
  ++cache.stats.hits;
  cache.lru.splice(cache.lru.end(), cache.lru, it->second.lru);
  if (out != nullptr) *out = it->second.timing;
  return true;
}

// Pops least-recently-used entries until the resident footprint fits the
// budget. The entry under `keep` — the key just inserted — is skipped, so
// an insert never evicts itself. Caller holds the cache mutex.
void EvictOverBudget(Cache& cache, const std::string& keep) {
  SimCacheStats& s = cache.stats;
  auto node = cache.lru.begin();
  while (cache.budget_bytes != 0 && s.resident_bytes > cache.budget_bytes &&
         node != cache.lru.end()) {
    auto victim = node++;
    if (**victim == keep) continue;
    auto it = cache.timings.find(**victim);
    s.resident_bytes -= it->second.bytes;
    cache.lru.erase(victim);
    cache.timings.erase(it);
    ++s.evictions;
  }
}

// Inserts unless `key` is already resident (a racing miss or a live
// entry wins), then enforces the budget. Caller holds the cache mutex.
void InsertTiming(Cache& cache, const std::string& key,
                  const KernelTiming& timing) {
  auto [it, inserted] = cache.timings.try_emplace(key);
  if (!inserted) return;
  TimingEntry& entry = it->second;
  entry.timing = timing;
  entry.bytes = TimingEntryBytes(it->first, timing);
  entry.lru = cache.lru.insert(cache.lru.end(), &it->first);
  cache.stats.resident_bytes += entry.bytes;
  EvictOverBudget(cache, key);
}

// Every cold compile and every alcopd compile request builds a cache key,
// so its text is written with std::to_chars into one stack buffer (a key
// is a few hundred bytes) and copied out once: the copy's capacity is its
// size, which is what TimingEntryBytes charges. Doubles print round-trip
// exact (JsonNumber), so specs that differ in any bit never share an
// entry; integers print in decimal, a bool as 0 or 1; text is copied.
class KeyWriter {
 public:
  template <typename... Fields>
  void Add(const Fields&... fields) {
    (Put(fields), ...);
  }
  std::string str() const {
    return std::string(buf_, static_cast<size_t>(at_ - buf_));
  }

 private:
  template <typename T>
  void Put(const T& field) {
    if constexpr (std::is_floating_point_v<T>) {
      Room(support::kJsonNumberMaxChars);
      at_ = support::WriteJsonNumber(field, at_);
    } else if constexpr (std::is_same_v<T, char>) {
      Room(1);
      *at_++ = field;
    } else if constexpr (std::is_same_v<T, bool>) {
      Put(field ? '1' : '0');
    } else if constexpr (std::is_integral_v<T>) {
      Room(20);  // the longest int64_t
      at_ = std::to_chars(at_, at_ + 20, field).ptr;
    } else {
      const std::string_view text(field);
      Room(text.size());
      at_ = std::copy(text.begin(), text.end(), at_);
    }
  }
  void Room(size_t size) const {
    ALCOP_CHECK_LE(size, static_cast<size_t>(std::end(buf_) - at_))
        << "sim cache key too long";
  }

  char buf_[1024];
  char* at_ = buf_;
};

}  // namespace

std::string SimCacheKey(const schedule::GemmOp& op,
                        const schedule::ScheduleConfig& config,
                        const target::GpuSpec& spec,
                        schedule::InlineOrder inline_order) {
  KeyWriter key;
  key.Add(schedule::OpFamilyName(op.family), '|', op.batch, 'x', op.m, 'x',
          op.n, 'x', op.k, '|', static_cast<int>(op.a_producer_op), ':',
          op.a_producer_param, '|', static_cast<int>(op.epilogue_op), ':',
          op.epilogue_param, '|', config.ToString(), '|',
          static_cast<int>(inline_order));
  // Every rate/limit of the device model: benches tweak spec fields in
  // place (generation studies), so the name alone is not a key.
  char separator = '|';
  target::VisitDeviceNumerics(spec, [&](auto field) {
    key.Add(separator, field);
    separator = ',';
  });
  return key.str();
}

std::shared_ptr<const SimProgram> CachedSimProgram(
    const schedule::GemmOp& op, const schedule::ScheduleConfig& config,
    const target::GpuSpec& spec, schedule::InlineOrder inline_order) {
  return std::make_shared<const SimProgram>(
      CompileSimProgram(op, config, spec, inline_order));
}

bool ProbeCachedTiming(const schedule::GemmOp& op,
                       const schedule::ScheduleConfig& config,
                       const target::GpuSpec& spec,
                       schedule::InlineOrder inline_order, KernelTiming* out) {
  Cache& cache = GlobalCache();
  std::string key = SimCacheKey(op, config, spec, inline_order);
  std::lock_guard<std::mutex> lock(cache.mu);
  return Lookup(cache, key, out);
}

KernelTiming CachedCompileAndSimulate(const schedule::GemmOp& op,
                                      const schedule::ScheduleConfig& config,
                                      const target::GpuSpec& spec,
                                      schedule::InlineOrder inline_order) {
  Cache& cache = GlobalCache();
  std::string key = SimCacheKey(op, config, spec, inline_order);
  KernelTiming timing;
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    if (Lookup(cache, key, &timing)) return timing;
  }
  // Compile and replay outside the lock so concurrent misses do not
  // serialize the expensive work; the program is dropped after its one
  // replay through the thread's published arena (`sim.arena.bytes`).
  timing = CompileAndSimulate(op, config, spec, inline_order);
  std::lock_guard<std::mutex> lock(cache.mu);
  // The miss is counted where the map changes, under the same lock, so a
  // concurrent stats snapshot never sees an entry without its miss.
  ++cache.stats.misses;
  InsertTiming(cache, key, timing);
  return timing;
}

SimCacheStats GetSimCacheStats() {
  Cache& cache = GlobalCache();
  std::lock_guard<std::mutex> lock(cache.mu);
  SimCacheStats stats = cache.stats;
  stats.entries = cache.timings.size();
  stats.budget_bytes = cache.budget_bytes;
  return stats;
}

void ResetSimCache() {
  Cache& cache = GlobalCache();
  // Map and counters are cleared under the one lock, so a concurrent
  // snapshot sees either the whole pre-reset or the whole post-reset
  // state, never a mix.
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.timings.clear();
  cache.lru.clear();
  cache.stats = SimCacheStats();
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

void InsertCachedTiming(const std::string& key, const KernelTiming& timing) {
  Cache& cache = GlobalCache();
  std::lock_guard<std::mutex> lock(cache.mu);
  InsertTiming(cache, key, timing);
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
