// Tests of the process-wide compile+simulate cache (sim/sim_cache.h):
// key canonicalization, hit/miss accounting, that a repeated exhaustive
// sweep is 100% hits returning identical cycles, and the LRU budget with
// its exact byte accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "schedule/tensor.h"
#include "sim/sim_cache.h"
#include "support/parallel.h"
#include "target/gpu_spec.h"
#include "tuner/space.h"
#include "tuner/strategy.h"

namespace alcop {
namespace {

using schedule::MakeMatmul;

// A small real-simulator task so cache tests stay fast.
tuner::TuningTask SmallSimTask() {
  tuner::SpaceOptions options;
  options.tb_m = {64, 128};
  options.tb_n = {32, 64};
  options.tb_k = {32};
  options.warp_splits = {{2, 1}, {2, 2}};
  return tuner::MakeSimulatorTask(MakeMatmul("mm", 1024, 64, 2048),
                                  target::AmpereSpec(), options);
}

TEST(SimCacheTest, KeyDistinguishesOpConfigAndSpec) {
  schedule::GemmOp op = MakeMatmul("mm", 512, 512, 512);
  schedule::ScheduleConfig config;
  target::GpuSpec spec = target::AmpereSpec();
  std::string base = sim::SimCacheKey(op, config, spec,
                                      schedule::InlineOrder::kAfterPipelining);

  schedule::GemmOp op2 = op;
  op2.k = 1024;
  EXPECT_NE(base, sim::SimCacheKey(op2, config, spec,
                                   schedule::InlineOrder::kAfterPipelining));

  schedule::ScheduleConfig config2 = config;
  config2.smem_stages = 4;
  EXPECT_NE(base, sim::SimCacheKey(op, config2, spec,
                                   schedule::InlineOrder::kAfterPipelining));

  // Benches mutate spec fields in place; the name alone must not collide.
  target::GpuSpec spec2 = spec;
  spec2.dram_bw_bytes_per_cycle *= 2.0;
  EXPECT_NE(base, sim::SimCacheKey(op, config, spec2,
                                   schedule::InlineOrder::kAfterPipelining));

  // Doubles are keyed at full precision: the next representable clock
  // is a different device.
  target::GpuSpec spec3 = spec;
  spec3.clock_ghz = std::nextafter(spec.clock_ghz, 2.0 * spec.clock_ghz);
  EXPECT_NE(base, sim::SimCacheKey(op, config, spec3,
                                   schedule::InlineOrder::kAfterPipelining));

  EXPECT_NE(base, sim::SimCacheKey(op, config, spec,
                                   schedule::InlineOrder::kBeforePipelining));

  // Operator name is presentation only — same shape, same kernel.
  schedule::GemmOp renamed = op;
  renamed.name = "other";
  EXPECT_EQ(base, sim::SimCacheKey(renamed, config, spec,
                                   schedule::InlineOrder::kAfterPipelining));
}

// The exact key text, so the store's keys and alcopd's routing keys stay
// what they were: doubles as %.17g prints them, the config's flag
// suffixes, and a copy whose capacity is its size (TimingEntryBytes
// charges the capacity).
TEST(SimCacheTest, KeyTextIsPinned) {
  const schedule::GemmOp op = MakeMatmul("mm", 512, 512, 512);
  const target::GpuSpec spec = target::AmpereSpec();
  const std::string base = sim::SimCacheKey(
      op, schedule::ScheduleConfig(), spec,
      schedule::InlineOrder::kAfterPipelining);
  EXPECT_EQ(base,
            "matmul|1x512x512x512|0:0|0:0|tb=128x128x32 warp=64x64x16 "
            "smem_stages=1 reg_stages=1|2|108,1.4099999999999999,2048,128,2,"
            "25,64,41943040,2480,200,1100,1100,600,167936,262144,64,30,2000,"
            "1");
  EXPECT_EQ(base.capacity(), base.size());

  target::GpuSpec next = spec;
  next.clock_ghz = std::nextafter(spec.clock_ghz, 2.0 * spec.clock_ghz);
  EXPECT_EQ(sim::SimCacheKey(op, schedule::ScheduleConfig(), next,
                             schedule::InlineOrder::kAfterPipelining),
            "matmul|1x512x512x512|0:0|0:0|tb=128x128x32 warp=64x64x16 "
            "smem_stages=1 reg_stages=1|2|108,1.4100000000000001,2048,128,2,"
            "25,64,41943040,2480,200,1100,1100,600,167936,262144,64,30,2000,"
            "1");

  schedule::GemmOp fused = schedule::MakeBatchMatmul("bmm", 12, 512, 64, 512);
  fused.a_producer_op = ir::EwiseOp::kRelu;
  fused.a_producer_param = 0.1;
  fused.epilogue_op = ir::EwiseOp::kRelu;
  fused.epilogue_param = -0.0;
  schedule::ScheduleConfig flags;
  flags.split_k = 4;
  flags.raster_block = 8;
  flags.inner_fusion = false;
  flags.swizzle = false;
  flags.async_copies = false;
  const std::string odd = sim::SimCacheKey(
      fused, flags, target::VoltaLikeSpec(), schedule::InlineOrder::kNone);
  EXPECT_EQ(odd,
            "batch_matmul|12x512x64x512|1:0.10000000000000001|1:-0|"
            "tb=128x128x32 warp=64x64x16 smem_stages=1 reg_stages=1 "
            "split_k=4 raster=8 no-fusion no-swizzle blocking-copies|0|80,"
            "1.53,1024,128,2,25,64,6291456,1400,200,590,590,600,98304,262144,"
            "64,30,2000,0");
  EXPECT_EQ(odd.capacity(), odd.size());
}

TEST(SimCacheTest, RepeatedExhaustiveSearchIsAllHits) {
  tuner::TuningTask task = SmallSimTask();
  ASSERT_GE(task.space.size(), 8u);
  sim::ResetSimCache();

  tuner::TuningResult first = tuner::ExhaustiveSearch(task);
  sim::SimCacheStats after_first = sim::GetSimCacheStats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_EQ(after_first.misses, task.space.size());
  EXPECT_EQ(after_first.entries, task.space.size());

  tuner::TuningResult second = tuner::ExhaustiveSearch(task);
  sim::SimCacheStats after_second = sim::GetSimCacheStats();
  // The rerun is 100% hits: no new misses, one hit per config.
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_EQ(after_second.hits, task.space.size());
  EXPECT_EQ(after_second.entries, task.space.size());

  ASSERT_EQ(first.trials, second.trials);
  ASSERT_EQ(first.measured, second.measured);  // bit-identical cycles
}

TEST(SimCacheTest, CachedResultMatchesDirectSimulation) {
  tuner::TuningTask task = SmallSimTask();
  sim::ResetSimCache();
  for (const schedule::ScheduleConfig& config : task.space) {
    sim::KernelTiming direct =
        sim::CompileAndSimulate(task.op, config, task.spec);
    sim::KernelTiming cached =
        sim::CachedCompileAndSimulate(task.op, config, task.spec);
    sim::KernelTiming cached_again =
        sim::CachedCompileAndSimulate(task.op, config, task.spec);
    EXPECT_EQ(direct.feasible, cached.feasible);
    EXPECT_EQ(direct.cycles, cached.cycles);
    EXPECT_EQ(cached.cycles, cached_again.cycles);
    EXPECT_EQ(cached.reason, cached_again.reason);
  }
}

// Counters are kept under the cache lock that guards the maps, so a
// snapshot taken mid-sweep is linearizable: it can never observe an
// entry whose miss is uncounted, and hits/misses/entries only grow
// between snapshots while no reset runs. Under TSan (the CI tsan job
// matches this suite) this also proves the counter updates are raced
// against concurrent lookups without a data race.
TEST(SimCacheTest, ConcurrentSnapshotsAreConsistent) {
  tuner::TuningTask task = SmallSimTask();
  ASSERT_GE(task.space.size(), 4u);
  sim::ResetSimCache();

  constexpr int kWorkers = 3;
  constexpr int kSweeps = 4;
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};

  std::thread observer([&] {
    sim::SimCacheStats prev;
    while (!done.load(std::memory_order_acquire)) {
      sim::SimCacheStats now = sim::GetSimCacheStats();
      // Every entry was inserted by a miss; nothing is evicted without a
      // budget, so counts and bytes only grow.
      bool consistent =
          now.entries <= now.misses && now.evictions == 0 &&
          now.hits >= prev.hits && now.misses >= prev.misses &&
          now.entries >= prev.entries &&
          now.resident_bytes >= prev.resident_bytes;
      if (!consistent) violations.fetch_add(1, std::memory_order_relaxed);
      prev = now;
    }
  });

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&task] {
      for (int sweep = 0; sweep < kSweeps; ++sweep) {
        for (const schedule::ScheduleConfig& config : task.space) {
          sim::CachedCompileAndSimulate(task.op, config, task.spec);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  done.store(true, std::memory_order_release);
  observer.join();

  EXPECT_EQ(violations.load(), 0);
  sim::SimCacheStats final_stats = sim::GetSimCacheStats();
  // Every lookup was counted exactly once, racing misses included.
  EXPECT_EQ(final_stats.hits + final_stats.misses,
            static_cast<uint64_t>(kWorkers * kSweeps) * task.space.size());
  EXPECT_EQ(final_stats.entries, task.space.size());
  EXPECT_GE(final_stats.misses, task.space.size());
}

TEST(SimCacheTest, ResetClearsEntriesAndCounters) {
  tuner::TuningTask task = SmallSimTask();
  sim::ResetSimCache();
  tuner::ExhaustiveSearch(task);
  EXPECT_GT(sim::GetSimCacheStats().entries, 0u);
  sim::ResetSimCache();
  sim::SimCacheStats stats = sim::GetSimCacheStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

// Current value of the `sim.arena.bytes` gauge; 0 until some thread's
// arena registers it.
double ArenaGaugeBytes() {
  for (const obs::MetricSnapshot& m : obs::Registry::Global().Snapshot()) {
    if (m.name == "sim.arena.bytes") return m.value;
  }
  return 0.0;
}

// A miss replays through the thread's published arena: the gauge grows by
// that arena, and a later CompileAndSimulate of the same kernel on the
// same thread reuses it instead of holding a second one.
TEST(SimCacheTest, MissReplaysThroughThePublishedArena) {
  sim::ResetSimCache();
  schedule::GemmOp op = MakeMatmul("mm", 512, 512, 512);
  schedule::ScheduleConfig config;
  target::GpuSpec spec = target::AmpereSpec();
  double before = 0.0, after_miss = 0.0, after_direct = 0.0;
  std::thread fresh([&] {
    before = ArenaGaugeBytes();
    ASSERT_TRUE(sim::CachedCompileAndSimulate(op, config, spec).feasible);
    after_miss = ArenaGaugeBytes();
    ASSERT_TRUE(sim::CompileAndSimulate(op, config, spec).feasible);
    after_direct = ArenaGaugeBytes();
  });
  fresh.join();
  EXPECT_EQ(sim::GetSimCacheStats().misses, 1u);
  EXPECT_GT(after_miss, before) << "the miss's arena must be published";
  EXPECT_EQ(after_direct, after_miss) << "one arena per thread";
}

// RAII budget override: tests below bound the cache and must restore the
// unbounded default even on assertion failure.
struct ScopedBudget {
  explicit ScopedBudget(uint64_t bytes)
      : saved(sim::GetSimCacheBudgetBytes()) {
    sim::SetSimCacheBudgetBytes(bytes);
  }
  ~ScopedBudget() { sim::SetSimCacheBudgetBytes(saved); }
  uint64_t saved;
};

TEST(SimCacheLruTest, ProbeCountsHitOnlyWhenPresent) {
  sim::ResetSimCache();
  schedule::GemmOp op = MakeMatmul("mm", 512, 512, 512);
  schedule::ScheduleConfig config;
  target::GpuSpec spec = target::AmpereSpec();

  sim::KernelTiming probed;
  EXPECT_FALSE(sim::ProbeCachedTiming(
      op, config, spec, schedule::InlineOrder::kAfterPipelining, &probed));
  sim::SimCacheStats stats = sim::GetSimCacheStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);  // a probe miss is not a miss

  sim::KernelTiming direct = sim::CachedCompileAndSimulate(op, config, spec);
  EXPECT_TRUE(sim::ProbeCachedTiming(
      op, config, spec, schedule::InlineOrder::kAfterPipelining, &probed));
  EXPECT_EQ(probed.cycles, direct.cycles);
  stats = sim::GetSimCacheStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(SimCacheLruTest, BudgetBoundsResidencyAndCountsEvictions) {
  tuner::TuningTask task = SmallSimTask();
  ASSERT_GE(task.space.size(), 8u);

  // Measure the unbounded footprint of the sweep, then re-run it under
  // half that budget: evictions must fire and residency must converge
  // under the cap.
  sim::ResetSimCache();
  tuner::ExhaustiveSearch(task);
  uint64_t unbounded = sim::GetSimCacheStats().resident_bytes;
  ASSERT_GT(unbounded, 0u);

  sim::ResetSimCache();
  {
    ScopedBudget budget(unbounded / 2);
    tuner::ExhaustiveSearch(task);
    sim::SimCacheStats stats = sim::GetSimCacheStats();
    EXPECT_GT(stats.evictions, 0u);
    // One sweep measures each config once: every miss inserted one entry,
    // which is either resident or evicted.
    EXPECT_EQ(stats.entries + stats.evictions, stats.misses);
    EXPECT_LE(stats.resident_bytes, unbounded / 2);
    EXPECT_EQ(stats.budget_bytes, unbounded / 2);

    // Evicted or not, results stay correct: a re-sweep recompiles what
    // was dropped and returns the same cycles as the unbounded run.
    tuner::TuningResult rerun = tuner::ExhaustiveSearch(task);
    for (double cycles : rerun.measured) {
      EXPECT_TRUE(cycles > 0 || std::isinf(cycles));
    }
  }
  sim::ResetSimCache();
}

TEST(SimCacheLruTest, EvictionTakesStalestEntriesFirst) {
  // Synthetic timing entries give exact control over recency: insertion
  // order IS recency order. With a budget that overflows by a few
  // entries, eviction must take the stalest — so every evicted key comes
  // from the old end of the insertion order, and the just-inserted keys
  // all survive.
  sim::ResetSimCache();
  sim::KernelTiming timing;
  timing.feasible = true;
  timing.cycles = 1000.0;
  auto key_for = [](int i) {
    return "synthetic-entry-" + std::to_string(i) + std::string(40, 'k');
  };
  constexpr int kEntries = 320;
  for (int i = 0; i < kEntries; ++i) {
    sim::InsertCachedTiming(key_for(i), timing);
  }
  sim::SimCacheStats before = sim::GetSimCacheStats();
  ASSERT_EQ(before.entries, static_cast<uint64_t>(kEntries));
  ASSERT_EQ(before.evictions, 0u);

  {
    ScopedBudget budget(before.resident_bytes);  // full to the brim
    for (int i = kEntries; i < kEntries + 8; ++i) {
      sim::InsertCachedTiming(key_for(i), timing);  // pushes over budget
    }
    sim::SimCacheStats after = sim::GetSimCacheStats();
    EXPECT_GT(after.evictions, 0u);
    EXPECT_LE(after.resident_bytes, before.resident_bytes);

    std::set<std::string> present;
    for (auto& [key, value] : sim::SnapshotCachedTimings()) {
      present.insert(key);
    }
    // Every freshly inserted entry survives; every evicted entry comes
    // from the stale half of the insertion order.
    for (int i = kEntries; i < kEntries + 8; ++i) {
      EXPECT_TRUE(present.count(key_for(i)))
          << "fresh entry " << i << " was evicted";
    }
    for (int i = kEntries / 2; i < kEntries; ++i) {
      EXPECT_TRUE(present.count(key_for(i)))
          << "recent entry " << i << " evicted before stale ones";
    }
  }
  sim::ResetSimCache();
}

TEST(SimCacheLruTest,
     ProbeTouchPromotesEntryAndOneByteBudgetKeepsOnlyTheInsert) {
  // Compile-path entries are probe-addressable, so recency bumps via the
  // hit path are observable. A one-byte budget then evicts everything but
  // the inserting key's own entries, freshly touched or not.
  sim::ResetSimCache();
  target::GpuSpec spec = target::AmpereSpec();
  schedule::ScheduleConfig config;
  config.tile = {128, 128, 32, 64, 64, 16};
  config.smem_stages = 2;

  schedule::GemmOp a = MakeMatmul("mm", 512, 512, 512);
  schedule::GemmOp b = MakeMatmul("mm", 512, 512, 768);
  sim::CachedCompileAndSimulate(a, config, spec);
  sim::CachedCompileAndSimulate(b, config, spec);

  sim::KernelTiming probed;
  ASSERT_TRUE(sim::ProbeCachedTiming(
      a, config, spec, schedule::InlineOrder::kAfterPipelining, &probed));
  uint64_t hits = sim::GetSimCacheStats().hits;
  EXPECT_GE(hits, 1u);  // the probe counted a hit and touched the entry

  {
    ScopedBudget budget(1);
    schedule::GemmOp c = MakeMatmul("mm", 512, 512, 1024);
    sim::CachedCompileAndSimulate(c, config, spec);
    sim::SimCacheStats stats = sim::GetSimCacheStats();
    EXPECT_GT(stats.evictions, 0u);
    // a was touched after b, so it sits nearer the back of the recency
    // list; the budget reclaims both all the same.
    EXPECT_FALSE(sim::ProbeCachedTiming(
        a, config, spec, schedule::InlineOrder::kAfterPipelining, &probed));
    EXPECT_FALSE(sim::ProbeCachedTiming(
        b, config, spec, schedule::InlineOrder::kAfterPipelining, &probed));
  }
  sim::ResetSimCache();
}

TEST(SimCacheLruTest, InsertCachedNeverClobbersAndCountsNothing) {
  sim::ResetSimCache();
  schedule::GemmOp op = MakeMatmul("mm", 512, 512, 512);
  schedule::ScheduleConfig config;
  target::GpuSpec spec = target::AmpereSpec();
  std::string key = sim::SimCacheKey(op, config, spec,
                                     schedule::InlineOrder::kAfterPipelining);

  sim::KernelTiming live = sim::CachedCompileAndSimulate(op, config, spec);
  uint64_t misses = sim::GetSimCacheStats().misses;

  sim::KernelTiming stale;
  stale.feasible = true;
  stale.cycles = -1.0;  // a poisoned value that must never surface
  sim::InsertCachedTiming(key, stale);

  sim::SimCacheStats stats = sim::GetSimCacheStats();
  EXPECT_EQ(stats.misses, misses);  // insert counted neither hit nor miss
  sim::KernelTiming after = sim::CachedCompileAndSimulate(op, config, spec);
  EXPECT_EQ(after.cycles, live.cycles) << "loaded entry clobbered live one";

  // Into an empty slot the insert lands and is served.
  sim::ResetSimCache();
  sim::InsertCachedTiming(key, live);
  sim::KernelTiming probed;
  EXPECT_TRUE(sim::ProbeCachedTiming(
      op, config, spec, schedule::InlineOrder::kAfterPipelining, &probed));
  EXPECT_EQ(probed.cycles, live.cycles);
}

// Concurrent sweeps under a tight budget: inserts, hits, evictions and
// snapshots all race. TSan (the CI tsan job runs this suite) proves the
// LRU bookkeeping — recency list and byte accounting — is race-free; the
// assertions prove the stats stay coherent.
TEST(SimCacheLruTest, ConcurrentSweepsUnderBudgetStayCoherent) {
  tuner::TuningTask task = SmallSimTask();
  sim::ResetSimCache();
  tuner::ExhaustiveSearch(task);
  uint64_t unbounded = sim::GetSimCacheStats().resident_bytes;
  sim::ResetSimCache();

  {
    ScopedBudget budget(unbounded / 2);
    std::atomic<bool> done{false};
    std::thread observer([&] {
      while (!done.load(std::memory_order_acquire)) {
        sim::SimCacheStats now = sim::GetSimCacheStats();
        // A racing miss may find its key already inserted, so inserts
        // (resident or evicted) can only trail the misses.
        EXPECT_LE(now.entries + now.evictions, now.misses);
        EXPECT_LE(now.resident_bytes, unbounded / 2);
      }
    });
    std::vector<std::thread> workers;
    for (int w = 0; w < 3; ++w) {
      workers.emplace_back([&task] {
        for (int sweep = 0; sweep < 3; ++sweep) {
          for (const schedule::ScheduleConfig& config : task.space) {
            sim::KernelTiming timing =
                sim::CachedCompileAndSimulate(task.op, config, task.spec);
            EXPECT_TRUE(timing.feasible || !timing.reason.empty());
          }
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    done.store(true, std::memory_order_release);
    observer.join();

    sim::SimCacheStats stats = sim::GetSimCacheStats();
    EXPECT_LE(stats.resident_bytes, unbounded / 2);
  }
  sim::ResetSimCache();
}

TEST(SimCacheLruTest, IncrementalCountsMatchRecountAfterBudgetedSweep) {
  // GetSimCacheStats copies counts that every insert and eviction keeps
  // up to date. After a budgeted three-thread sweep they must equal a
  // recount of the resident entries.
  tuner::TuningTask task = SmallSimTask();
  sim::ResetSimCache();
  tuner::ExhaustiveSearch(task);
  uint64_t unbounded = sim::GetSimCacheStats().resident_bytes;
  sim::ResetSimCache();

  {
    ScopedBudget budget(unbounded / 2);
    const size_t n = task.space.size();
    std::vector<std::thread> workers;
    for (size_t w = 0; w < 3; ++w) {
      workers.emplace_back([&task, n, w] {
        // Each worker starts at its own offset, so misses, hits and
        // evictions interleave across threads.
        for (size_t step = 0; step < 3 * n; ++step) {
          sim::CachedCompileAndSimulate(
              task.op, task.space[(step + w * n / 3) % n], task.spec);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();

    sim::SimCacheStats stats = sim::GetSimCacheStats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_EQ(stats.hits + stats.misses, 3 * 3 * n);
    EXPECT_LE(stats.entries + stats.evictions, stats.misses);
    std::vector<std::pair<std::string, sim::KernelTiming>> resident =
        sim::SnapshotCachedTimings();
    EXPECT_EQ(stats.entries, resident.size());

    // Recount: the resident entries re-inserted into an empty cache
    // charge exactly the bytes the incremental count holds.
    sim::ResetSimCache();
    for (const auto& [key, timing] : resident) {
      sim::InsertCachedTiming(key, timing);
    }
    sim::SimCacheStats recount = sim::GetSimCacheStats();
    EXPECT_EQ(recount.evictions, 0u);
    EXPECT_EQ(recount.entries, stats.entries);
    EXPECT_EQ(recount.resident_bytes, stats.resident_bytes);
  }
  sim::ResetSimCache();
}

}  // namespace
}  // namespace alcop
