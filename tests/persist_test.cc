// Tests of the persistent on-disk schedule cache (serving/persist.h):
// bit-identical round trips through save/reset/load, whole-file rejection
// on version/spec/fitted-constants mismatch, tolerance of truncated and
// corrupted files, and concurrent readers/writers against one path.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "schedule/tensor.h"
#include "serving/persist.h"
#include "sim/sim_cache.h"
#include "target/gpu_spec.h"
#include "tuner/records.h"
#include "tuner/strategy.h"
#include "tuner/transfer.h"
#include "workloads/ops.h"

namespace alcop {
namespace {

using schedule::MakeMatmul;

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Fresh process-wide state and a unique file path per test.
class PersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::ResetSimCache();
    tuner::TuningStore::Global().Clear();
    path_ = ::testing::TempDir() + "/alcop_persist_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".alcp";
    std::remove(path_.c_str());
  }

  void TearDown() override {
    std::remove(path_.c_str());
    sim::ResetSimCache();
    tuner::TuningStore::Global().Clear();
  }

  // Populates the sim cache with real compiled timings — the first
  // schedules of one operator, a couple of shape variants, and one
  // infeasible schedule (a timing with a reason and no cycles) — and the
  // TuningStore with the tuning those first schedules make.
  void Populate(const target::GpuSpec& spec) {
    schedule::GemmOp op = MakeMatmul("mm", 512, 512, 512);
    tuner::TuningTask task = tuner::MakeSimulatorTask(op, spec);
    tuner::StoredTuning tuning;
    tuning.op_key = tuner::OpKey(op);
    tuning.op = op;
    for (size_t c = 0; c < task.space.size() && c < 6; ++c) {
      tuning.trials.push_back(
          {task.space[c],
           sim::CachedCompileAndSimulate(op, task.space[c], spec).cycles});
    }
    tuner::TuningStore::Global().Put(std::move(tuning));
    schedule::ScheduleConfig config;  // defaults are feasible on Ampere
    for (int64_t k : {1024, 1536}) {
      sim::CachedCompileAndSimulate(MakeMatmul("mm", 512, 512, k), config,
                                    spec);
    }
    // 256x256 tiles at 4 shared stages want 256 KB of shared memory.
    schedule::ScheduleConfig unfit;
    unfit.tile = {256, 256, 64, 64, 64, 16};
    unfit.smem_stages = 4;
    ASSERT_FALSE(sim::CachedCompileAndSimulate(op, unfit, spec).feasible);
  }

  std::string ReadFile() {
    std::ifstream in(path_, std::ios::binary);
    EXPECT_TRUE(in.good());
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return data;
  }

  void WriteFile(const std::string& data) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }

  std::string path_;
};

TEST_F(PersistTest, TimingRoundTripIsBitIdentical) {
  target::GpuSpec spec = target::AmpereSpec();
  Populate(spec);
  std::vector<std::pair<std::string, sim::KernelTiming>> before =
      sim::SnapshotCachedTimings();
  ASSERT_GE(before.size(), 4u);

  serving::PersistStats saved = serving::SaveCache(path_, spec);
  ASSERT_TRUE(saved.ok) << saved.error;
  EXPECT_EQ(saved.timings, before.size());
  EXPECT_GT(saved.bytes, 0u);

  sim::ResetSimCache();
  ASSERT_TRUE(sim::SnapshotCachedTimings().empty());

  serving::PersistStats loaded = serving::LoadCache(path_, spec);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.timings, before.size());
  EXPECT_EQ(loaded.skipped, 0u);

  std::map<std::string, sim::KernelTiming> after;
  for (auto& [key, timing] : sim::SnapshotCachedTimings()) {
    after.emplace(key, timing);
  }
  ASSERT_EQ(after.size(), before.size());
  for (const auto& [key, timing] : before) {
    auto it = after.find(key);
    ASSERT_NE(it, after.end()) << key;
    EXPECT_EQ(timing.feasible, it->second.feasible);
    EXPECT_EQ(timing.reason, it->second.reason);
    EXPECT_TRUE(BitEqual(timing.cycles, it->second.cycles));
    EXPECT_TRUE(BitEqual(timing.microseconds, it->second.microseconds));
    EXPECT_TRUE(BitEqual(timing.tflops, it->second.tflops));
    EXPECT_TRUE(BitEqual(timing.batch_cycles, it->second.batch_cycles));
    EXPECT_EQ(timing.threadblocks_per_sm, it->second.threadblocks_per_sm);
    EXPECT_EQ(timing.batches, it->second.batches);
  }
}

TEST_F(PersistTest, TuningStoreRoundTrips) {
  target::GpuSpec spec = target::AmpereSpec();
  tuner::SpaceOptions options;
  options.tb_m = {64, 128};
  options.tb_n = {64};
  options.tb_k = {32};
  tuner::TuningTask task =
      tuner::MakeSimulatorTask(MakeMatmul("mm", 512, 768, 1024), spec, options);
  ASSERT_FALSE(task.space.empty());
  tuner::TuningResult result = tuner::XgbTuner(task, 6, {});
  tuner::StoreTuning(task, result, tuner::TuningStore::Global());
  ASSERT_EQ(tuner::TuningStore::Global().Size(), 1u);
  std::vector<tuner::StoredTuning> before =
      tuner::TuningStore::Global().Snapshot();

  ASSERT_TRUE(serving::SaveCache(path_, spec).ok);
  tuner::TuningStore::Global().Clear();
  sim::ResetSimCache();
  serving::PersistStats loaded = serving::LoadCache(path_, spec);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.tunings, 1u);

  std::vector<tuner::StoredTuning> after =
      tuner::TuningStore::Global().Snapshot();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].op_key, before[0].op_key);
  ASSERT_EQ(after[0].trials.size(), before[0].trials.size());
  for (size_t i = 0; i < after[0].trials.size(); ++i) {
    EXPECT_EQ(after[0].trials[i].config.ToString(),
              before[0].trials[i].config.ToString());
    EXPECT_TRUE(BitEqual(after[0].trials[i].cycles, before[0].trials[i].cycles));
  }
  ASSERT_EQ(after[0].signature.size(), before[0].signature.size());
  for (size_t i = 0; i < after[0].signature.size(); ++i) {
    EXPECT_TRUE(BitEqual(after[0].signature[i], before[0].signature[i]));
  }
}

TEST_F(PersistTest, MissingFileFailsCleanly) {
  serving::PersistStats loaded =
      serving::LoadCache(path_, target::AmpereSpec());
  EXPECT_FALSE(loaded.ok);
  EXPECT_FALSE(loaded.error.empty());
  EXPECT_EQ(loaded.timings, 0u);
}

TEST_F(PersistTest, VersionMismatchRejectsWholeFile) {
  target::GpuSpec spec = target::AmpereSpec();
  Populate(spec);
  ASSERT_TRUE(serving::SaveCache(path_, spec).ok);

  // Header layout: u32 magic | u32 version | u64 spec fp | u64 fit fp.
  std::string data = ReadFile();
  ASSERT_GE(data.size(), 24u);
  uint32_t bumped = serving::kPersistVersion + 1;
  std::memcpy(data.data() + 4, &bumped, sizeof(bumped));
  WriteFile(data);

  sim::ResetSimCache();
  serving::PersistStats loaded = serving::LoadCache(path_, spec);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("version"), std::string::npos) << loaded.error;
  EXPECT_TRUE(sim::SnapshotCachedTimings().empty()) << "partial load";
}

TEST_F(PersistTest, BadMagicRejectsWholeFile) {
  target::GpuSpec spec = target::AmpereSpec();
  Populate(spec);
  ASSERT_TRUE(serving::SaveCache(path_, spec).ok);
  std::string data = ReadFile();
  data[0] ^= 0x5A;
  WriteFile(data);
  sim::ResetSimCache();
  EXPECT_FALSE(serving::LoadCache(path_, spec).ok);
}

TEST_F(PersistTest, SpecNumericsMismatchRejectsWholeFile) {
  target::GpuSpec spec = target::AmpereSpec();
  Populate(spec);
  ASSERT_TRUE(serving::SaveCache(path_, spec).ok);

  target::GpuSpec other = spec;
  other.num_sms += 4;  // different device geometry, same model fit
  ASSERT_NE(serving::SpecFingerprint(spec), serving::SpecFingerprint(other));
  sim::ResetSimCache();
  serving::PersistStats loaded = serving::LoadCache(path_, other);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("Spec"), std::string::npos) << loaded.error;
}

TEST_F(PersistTest, FittedConstantsMismatchRejectsWholeFile) {
  target::GpuSpec spec = target::AmpereSpec();
  Populate(spec);
  ASSERT_TRUE(serving::SaveCache(path_, spec).ok);

  // A refit changes model_fit but not the cache-key numerics: the keys
  // would still match, so only the fitted-constants fingerprint stands
  // between a stale file and silent reuse.
  target::GpuSpec refit = spec;
  refit.model_fit.iter_overhead_cycles += 15.0;
  ASSERT_EQ(serving::SpecFingerprint(spec), serving::SpecFingerprint(refit));
  ASSERT_NE(serving::FittedConstantsFingerprint(spec),
            serving::FittedConstantsFingerprint(refit));

  sim::ResetSimCache();
  serving::PersistStats loaded = serving::LoadCache(path_, refit);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("fitted"), std::string::npos) << loaded.error;
}

TEST_F(PersistTest, TruncatedTailIsTolerated) {
  target::GpuSpec spec = target::AmpereSpec();
  Populate(spec);
  serving::PersistStats saved = serving::SaveCache(path_, spec);
  ASSERT_TRUE(saved.ok) << saved.error;
  std::string data = ReadFile();

  // Chop the file mid-frame: everything before the tear loads, the torn
  // frame is skipped, and load still reports ok.
  WriteFile(data.substr(0, data.size() - data.size() / 3));
  sim::ResetSimCache();
  serving::PersistStats loaded = serving::LoadCache(path_, spec);
  EXPECT_TRUE(loaded.ok) << loaded.error;
  EXPECT_GT(loaded.timings, 0u);
  EXPECT_LT(loaded.timings + loaded.tunings, saved.timings + saved.tunings);
  EXPECT_EQ(sim::GetSimCacheStats().entries, loaded.timings);

  // Header-only (and shorter) files fail cleanly rather than crash.
  for (size_t keep : {0u, 7u, 23u}) {
    WriteFile(data.substr(0, keep));
    sim::ResetSimCache();
    EXPECT_FALSE(serving::LoadCache(path_, spec).ok) << keep;
  }
}

TEST_F(PersistTest, CorruptFrameIsSkippedNotFatal) {
  target::GpuSpec spec = target::AmpereSpec();
  Populate(spec);
  serving::PersistStats saved = serving::SaveCache(path_, spec);
  ASSERT_TRUE(saved.ok);
  std::string data = ReadFile();

  // Flip one payload byte past the header and first frame prefix: that
  // frame's checksum no longer matches, the loader skips it and resyncs.
  data[data.size() / 2] ^= 0xFF;
  WriteFile(data);
  sim::ResetSimCache();
  serving::PersistStats loaded = serving::LoadCache(path_, spec);
  EXPECT_TRUE(loaded.ok) << loaded.error;
  EXPECT_GE(loaded.skipped, 1u);
  uint64_t total_saved = saved.timings + saved.tunings;
  uint64_t total_loaded = loaded.timings + loaded.tunings;
  EXPECT_LT(total_loaded, total_saved);
  EXPECT_GT(total_loaded, 0u) << "corruption of one frame dropped everything";
}

TEST_F(PersistTest, LoadNeverClobbersLiveEntries) {
  target::GpuSpec spec = target::AmpereSpec();
  Populate(spec);
  ASSERT_TRUE(serving::SaveCache(path_, spec).ok);

  // Live entries stay; loading on top only fills gaps.
  std::vector<std::pair<std::string, sim::KernelTiming>> live =
      sim::SnapshotCachedTimings();
  serving::PersistStats loaded = serving::LoadCache(path_, spec);
  ASSERT_TRUE(loaded.ok);
  std::vector<std::pair<std::string, sim::KernelTiming>> after =
      sim::SnapshotCachedTimings();
  EXPECT_EQ(after.size(), live.size());
}

TEST_F(PersistTest, ConcurrentReadersAndWritersAreSafe) {
  // Savers snapshot under the cache lock and rename() complete files
  // into place; loaders see either the old or the new file, never a torn
  // one. TSan runs this to check the snapshot/insert paths race-free.
  target::GpuSpec spec = target::AmpereSpec();
  Populate(spec);
  ASSERT_TRUE(serving::SaveCache(path_, spec).ok);

  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      schedule::ScheduleConfig config;
      config.smem_stages = 2 + t;
      for (int i = 0; i < 3; ++i) {
        sim::CachedCompileAndSimulate(
            MakeMatmul("mm", 512, 512, 512 + 256 * i), config, spec);
        serving::SaveCache(path_, spec);
      }
    });
    threads.emplace_back([&] {
      for (int i = 0; i < 6; ++i) {
        serving::PersistStats loaded = serving::LoadCache(path_, spec);
        EXPECT_TRUE(loaded.ok) << loaded.error;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  serving::PersistStats final_load = serving::LoadCache(path_, spec);
  EXPECT_TRUE(final_load.ok) << final_load.error;
}

TEST_F(PersistTest, DefaultCachePathFollowsEnv) {
  const char* saved = std::getenv("ALCOP_CACHE_DIR");
  std::string restore = saved == nullptr ? "" : saved;

  ::setenv("ALCOP_CACHE_DIR", "/tmp/alcop_cache_dir_test", 1);
  EXPECT_EQ(serving::DefaultCachePath(),
            "/tmp/alcop_cache_dir_test/sim_cache.alcp");
  ::unsetenv("ALCOP_CACHE_DIR");
  EXPECT_EQ(serving::DefaultCachePath(), "");

  if (saved != nullptr) ::setenv("ALCOP_CACHE_DIR", restore.c_str(), 1);
}

// The sim cache key and the persisted spec fingerprint both walk
// target::VisitDeviceNumerics. What they write is pinned: a change would
// orphan every cached timing and reject every persisted file.
TEST(DeviceNumericsTest, CacheKeyAndSpecFingerprintArePinned) {
  const target::GpuSpec spec = target::AmpereSpec();
  schedule::ScheduleConfig config;
  config.tile.tb_n = 256;
  config.smem_stages = 4;
  config.reg_stages = 2;
  EXPECT_EQ(sim::SimCacheKey(workloads::FindOp("BMM_BERT_QK"), config, spec,
                             schedule::InlineOrder::kAfterPipelining),
            "batch_matmul|12x512x512x64|0:0|0:0|tb=128x256x32 warp=64x64x16 "
            "smem_stages=4 reg_stages=2|2|108,1.4099999999999999,2048,128,2,"
            "25,64,41943040,2480,200,1100,1100,600,167936,262144,64,30,2000,"
            "1");
  EXPECT_EQ(serving::SpecFingerprint(spec), 0x3212e55ab5067564ull);
}

}  // namespace
}  // namespace alcop
