// Tests of the tuning stack: space enumeration, feature extraction, the
// gradient-boosted-tree model, the simulated-annealing proposer, and the
// four search strategies' relative quality (Table II / Fig. 13 behavior).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>

#include "obs/metrics.h"
#include "schedule/lower.h"
#include "schedule/tensor.h"
#include "sim/sim_cache.h"
#include "support/check.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "target/gpu_spec.h"
#include "tuner/anneal.h"
#include "tuner/feature.h"
#include "tuner/gbt.h"
#include "tuner/space.h"
#include "tuner/strategy.h"
#include "tuner/transfer.h"
#include "workloads/ops.h"

namespace alcop {
namespace {

using schedule::GemmOp;
using schedule::MakeMatmul;
using schedule::ScheduleConfig;

// ---- Space ----

TEST(SpaceTest, AllEnumeratedConfigsAreValid) {
  GemmOp op = MakeMatmul("mm", 512, 512, 512);
  std::vector<ScheduleConfig> space = tuner::EnumerateSpace(op);
  ASSERT_FALSE(space.empty());
  for (const ScheduleConfig& config : space) {
    EXPECT_TRUE(schedule::ValidateConfig(op, config)) << config.ToString();
  }
}

TEST(SpaceTest, RespectsShapeDivisibility) {
  // N = 64 rules out tb_n in {128, 256}.
  GemmOp op = MakeMatmul("mm", 1024, 64, 2048);
  for (const ScheduleConfig& config : tuner::EnumerateSpace(op)) {
    EXPECT_LE(config.tile.tb_n, 64);
  }
}

TEST(SpaceTest, VariantSpacesAreSubsets) {
  GemmOp op = MakeMatmul("mm", 512, 512, 512);
  size_t full = tuner::EnumerateSpace(op).size();
  size_t tvm = tuner::EnumerateSpace(op, tuner::SpaceOptions::NoPipelining()).size();
  size_t shared_only =
      tuner::EnumerateSpace(op, tuner::SpaceOptions::SharedPipeliningOnly()).size();
  EXPECT_LT(tvm, shared_only);
  EXPECT_LT(shared_only, full);
}

TEST(SpaceTest, DeterministicOrder) {
  GemmOp op = MakeMatmul("mm", 512, 512, 512);
  std::vector<ScheduleConfig> a = tuner::EnumerateSpace(op);
  std::vector<ScheduleConfig> b = tuner::EnumerateSpace(op);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ToString(), b[i].ToString());
  }
}

// ---- Features ----

TEST(FeatureTest, FixedLengthAndFinite) {
  GemmOp op = MakeMatmul("mm", 512, 512, 512);
  target::GpuSpec spec = target::AmpereSpec();
  for (const ScheduleConfig& config : tuner::EnumerateSpace(op)) {
    std::vector<double> f = tuner::ExtractFeatures(op, config, spec);
    ASSERT_EQ(static_cast<int>(f.size()), tuner::kNumFeatures);
    for (double v : f) EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_EQ(static_cast<int>(tuner::FeatureNames().size()),
            tuner::kNumFeatures);
}

TEST(FeatureTest, DistinguishesStageCounts) {
  GemmOp op = MakeMatmul("mm", 512, 512, 512);
  target::GpuSpec spec = target::AmpereSpec();
  ScheduleConfig a, b;
  a.smem_stages = 1;
  b.smem_stages = 4;
  EXPECT_NE(tuner::ExtractFeatures(op, a, spec),
            tuner::ExtractFeatures(op, b, spec));
}

// ---- GBT ----

TEST(GbtTest, FitsSimpleFunction) {
  // y = 3*x0 - 2*x1 on a grid; the ensemble should reach low error.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 20; ++i) {
    for (int j = 0; j < 20; ++j) {
      x.push_back({static_cast<double>(i), static_cast<double>(j)});
      y.push_back(3.0 * i - 2.0 * j);
    }
  }
  tuner::GbtModel model;
  model.Fit(x, y);
  double max_err = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    max_err = std::max(max_err, std::abs(model.Predict(x[i]) - y[i]));
  }
  EXPECT_LT(max_err, 6.0);  // range of y is 95
}

TEST(GbtTest, FitsNonlinearInteraction) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    double a = rng.Uniform(0, 4), b = rng.Uniform(0, 4);
    x.push_back({a, b});
    y.push_back((a > 2 && b > 2) ? 10.0 : 0.0);
  }
  tuner::GbtModel model;
  model.Fit(x, y);
  EXPECT_GT(model.Predict({3.5, 3.5}), 7.0);
  EXPECT_LT(model.Predict({0.5, 0.5}), 3.0);
}

TEST(GbtTest, WeightsBiasTheFit) {
  // Two clusters with conflicting labels; heavy weights must win.
  std::vector<std::vector<double>> x = {{0.0}, {0.0}, {1.0}, {1.0}};
  std::vector<double> y = {0.0, 10.0, 0.0, 10.0};
  tuner::GbtModel model;
  model.Fit(x, y, {100.0, 1.0, 1.0, 100.0});
  EXPECT_LT(model.Predict({0.0}), 3.0);
  EXPECT_GT(model.Predict({1.0}), 7.0);
}

TEST(GbtTest, PredictBeforeFitThrows) {
  tuner::GbtModel model;
  EXPECT_FALSE(model.IsFitted());
  EXPECT_THROW(model.Predict({1.0}), CheckError);
}

TEST(GbtTest, EmptyFitThrows) {
  tuner::GbtModel model;
  EXPECT_THROW(model.Fit({}, {}), CheckError);
}

// A NaN has no place in a feature's sorted bins.
TEST(GbtTest, NaNFeatureThrows) {
  tuner::GbtModel model;
  EXPECT_THROW(model.Fit({{1.0, 0.0}, {2.0, std::nan("")}}, {0.0, 1.0}),
               CheckError);
  EXPECT_FALSE(model.IsFitted());
}

// A dataset shaped like an XgbTuner refit, drawn from raw mt19937_64
// output only (no distribution objects, simulator or analytical model), so
// that no change outside the GBT can move it: 1,000 pre-training rows at
// weight 0.25 over 17 features of at most 56 distinct values each (the
// last one constant, like split_k), targets shaped like -log(cycles) with
// some at the infeasible score -30, then 32 rows duplicating pre-training
// inputs at weight 1.0, like measured trials.
struct RefitShapedData {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  std::vector<double> w;
};

RefitShapedData MakeRefitShapedData() {
  Rng rng(2024);
  auto draw = [&rng](uint64_t bound) {
    return static_cast<double>(rng.engine()() % bound);
  };
  constexpr int kLevels[17] = {56, 7, 5, 4, 3, 56, 12, 9, 2,
                               30, 17, 6, 4, 3, 48, 25, 1};
  RefitShapedData data;
  for (int row = 0; row < 1000; ++row) {
    std::vector<double> f;
    for (int c = 0; c < 17; ++c) f.push_back(0.25 * draw(kLevels[c]) + c);
    double score = -9.0 - 0.05 * f[0] + 0.3 * f[1] * (f[2] - 2.5) -
                   0.02 * f[5] * f[6] + 0.1 * f[9] + 0.01 * draw(100);
    if (draw(25) == 0) score = -30.0;
    data.x.push_back(f);
    data.y.push_back(score);
    data.w.push_back(0.25);
  }
  for (int trial = 0; trial < 32; ++trial) {
    size_t source = static_cast<size_t>(draw(1000));
    data.x.push_back(data.x[source]);
    data.y.push_back(data.y[source] == -30.0
                         ? -30.0
                         : data.y[source] + 0.05 * (draw(21) - 10.0));
    data.w.push_back(1.0);
  }
  return data;
}

// 64-bit FNV-1a over the bit patterns of `values`.
uint64_t HashBits(const std::vector<double>& values) {
  uint64_t hash = 14695981039346656037ull;
  for (double v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xff;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

std::string Hex(double v) {
  char text[64];
  std::snprintf(text, sizeof text, "%a", v);
  return text;
}

// Pins the fitted model bit for bit, so a rewrite of Fit that changes any
// floating-point sum order or split choice fails here. The second fit makes
// feature 0 constant, so it has no bins and is never split on.
TEST(GbtTest, GoldenPredictionsOnRefitShapedData) {
  RefitShapedData data = MakeRefitShapedData();
  ASSERT_EQ(data.x.size(), 1032u);
  auto fit_and_predict = [](const RefitShapedData& d) {
    tuner::GbtModel model;
    model.Fit(d.x, d.y, d.w);
    std::vector<double> out;
    for (const auto& row : d.x) out.push_back(model.Predict(row));
    return out;
  };

  std::vector<double> pred = fit_and_predict(data);
  EXPECT_EQ(HashBits(pred), 6333361165517740541ull);
  EXPECT_EQ(Hex(pred[0]), "-0x1.2a53f28cfd32dp+3");
  EXPECT_EQ(Hex(pred[517]), "-0x1.4840a04c7702ep+3");
  EXPECT_EQ(Hex(pred[1031]), "-0x1.386a8c8cc1a5cp+3");

  for (auto& row : data.x) row[0] = 3.0;
  std::vector<double> constant0 = fit_and_predict(data);
  EXPECT_EQ(HashBits(constant0), 11347052095137070073ull);
  EXPECT_EQ(Hex(constant0[0]), "-0x1.22c7f1a7ead38p+3");
  EXPECT_EQ(Hex(constant0[517]), "-0x1.3de85ee1a8fe9p+3");
  EXPECT_EQ(Hex(constant0[1031]), "-0x1.37c49899ec807p+3");
}

// A column that is a strictly increasing function of an earlier one sorts
// the rows the same way, so at every node it offers the same splits with
// the same gains and loses each tie to the earlier column: appending one
// must leave every prediction bit-identical.
TEST(GbtTest, MonotoneCopyOfAColumnLeavesPredictionsBitIdentical) {
  RefitShapedData data = MakeRefitShapedData();
  auto fit_and_predict = [](const RefitShapedData& d) {
    tuner::GbtModel model;
    model.Fit(d.x, d.y, d.w);
    std::vector<double> out;
    for (const auto& row : d.x) out.push_back(model.Predict(row));
    return out;
  };
  std::vector<double> plain = fit_and_predict(data);
  for (auto& row : data.x) row.push_back(std::log2(row[5]) - 3.0);
  std::vector<double> with_copy = fit_and_predict(data);
  EXPECT_EQ(HashBits(with_copy), HashBits(plain));
  EXPECT_EQ(with_copy, plain);
}

// Fit returns its prediction of every training row, read off the leaves
// as each tree is built; each must equal Predict of the row bit for bit.
// The refit-shaped data has duplicated rows and a constant column. The
// second dataset adds a column of two adjacent doubles whose midpoint
// rounds up to the larger one, so its threshold must be the smaller value
// for the fit's partition to match Predict's `x <= threshold`.
TEST(GbtTest, FitReturnsPredictOfEveryRow) {
  auto expect_fit_equals_predict = [](const RefitShapedData& d) {
    tuner::GbtModel model;
    std::vector<double> fitted = model.Fit(d.x, d.y, d.w);
    ASSERT_EQ(fitted.size(), d.x.size());
    std::vector<double> predicted;
    for (const auto& row : d.x) predicted.push_back(model.Predict(row));
    EXPECT_EQ(HashBits(fitted), HashBits(predicted));
    for (size_t i = 0; i < d.x.size(); ++i) {
      ASSERT_EQ(Hex(fitted[i]), Hex(predicted[i])) << "row " << i;
    }
  };
  RefitShapedData data = MakeRefitShapedData();
  expect_fit_equals_predict(data);

  double low = std::nextafter(1.0, 2.0);
  double high = std::nextafter(low, 2.0);
  ASSERT_EQ(0.5 * (low + high), high);
  RefitShapedData adjacent;
  for (int i = 0; i < 64; ++i) {
    bool up = i % 2 == 1;
    adjacent.x.push_back({static_cast<double>(i % 8), up ? high : low});
    adjacent.y.push_back((i % 8) + (up ? 5.0 : 0.0));
    adjacent.w.push_back(1.0);
  }
  expect_fit_equals_predict(adjacent);
  tuner::GbtModel model;
  model.Fit(adjacent.x, adjacent.y, adjacent.w);
  EXPECT_GT(model.Predict({0.0, high}) - model.Predict({0.0, low}), 4.0)
      << "the split between the adjacent values takes effect";
}

// One bin per distinct value, however many: a column of 1,200 distinct
// values with a step in the target between two adjacent ones is split
// exactly at the step, which a capped bin count would merge into one bin.
TEST(GbtTest, ExactBinsKeepEveryThreshold) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  constexpr int kRows = 1200;
  constexpr int kStep = 701;  // rows below it are 0, rows from it on are 1
  for (int i = 0; i < kRows; ++i) {
    x.push_back({std::sqrt(static_cast<double>(i))});
    y.push_back(i < kStep ? 0.0 : 1.0);
  }
  std::set<double> distinct;
  for (const auto& row : x) distinct.insert(row[0]);
  ASSERT_EQ(distinct.size(), static_cast<size_t>(kRows));
  tuner::GbtModel model;
  std::vector<double> fitted = model.Fit(x, y);
  for (int i = 0; i < kRows; ++i) {
    double prediction = model.Predict(x[static_cast<size_t>(i)]);
    EXPECT_EQ(fitted[static_cast<size_t>(i)], prediction);
    if (i < kStep) {
      EXPECT_LT(prediction, 0.5) << "row " << i;
    } else {
      EXPECT_GT(prediction, 0.5) << "row " << i;
    }
  }
}

// ---- Annealing ----

// The O(space^2) definition that BuildNeighborLists must reproduce. The
// relation is symmetric, so each pair is tested once; rows still fill in
// ascending order (every j < i arrives before row i's own scan).
std::vector<std::vector<size_t>> PairwiseNeighbors(
    const std::vector<ScheduleConfig>& space) {
  std::vector<std::vector<size_t>> neighbors(space.size());
  for (size_t i = 0; i < space.size(); ++i) {
    for (size_t j = i + 1; j < space.size(); ++j) {
      if (tuner::AreNeighbors(space[i], space[j])) {
        neighbors[i].push_back(j);
        neighbors[j].push_back(i);
      }
    }
  }
  return neighbors;
}

TEST(AnnealTest, NeighborListsEqualThePairwiseScan) {
  for (const GemmOp& op : workloads::BenchmarkOps()) {
    for (const tuner::SpaceOptions& options :
         {tuner::SpaceOptions(), tuner::SpaceOptions::WithSplitK()}) {
      std::vector<ScheduleConfig> space = tuner::EnumerateSpace(op, options);
      ASSERT_FALSE(space.empty()) << op.name;
      EXPECT_EQ(tuner::BuildNeighborLists(space), PairwiseNeighbors(space))
          << op.name << " split_k options: " << options.split_k.size();
    }
  }
  // swizzle is not a knob: two configs that differ only there are not
  // neighbors, and a config one stage count away neighbors both.
  ScheduleConfig a;
  ScheduleConfig b = a;
  b.swizzle = !a.swizzle;
  ScheduleConfig c = a;
  c.smem_stages = a.smem_stages + 1;
  std::vector<ScheduleConfig> space = {a, b, c};
  std::vector<std::vector<size_t>> expected = {{2}, {2}, {0, 1}};
  EXPECT_EQ(PairwiseNeighbors(space), expected);
  EXPECT_EQ(tuner::BuildNeighborLists(space), expected);
}

TEST(AnnealTest, NeighborRelationIsSingleKnob) {
  ScheduleConfig a;
  ScheduleConfig b = a;
  EXPECT_FALSE(tuner::AreNeighbors(a, b));  // identical
  b.smem_stages = 3;
  EXPECT_TRUE(tuner::AreNeighbors(a, b));
  b.reg_stages = 2;
  EXPECT_FALSE(tuner::AreNeighbors(a, b));  // two knobs differ
}

TEST(AnnealTest, FindsHighScoringConfigs) {
  GemmOp op = MakeMatmul("mm", 512, 512, 512);
  std::vector<ScheduleConfig> space = tuner::EnumerateSpace(op);
  // Score favors deep pipelines on big tiles.
  auto score = [&space](size_t i) {
    return static_cast<double>(space[i].smem_stages * space[i].tile.tb_m);
  };
  Rng rng(1);
  std::vector<size_t> batch = tuner::ProposeBatch(
      space, tuner::BuildNeighborLists(space), score, {}, 5, rng);
  ASSERT_EQ(batch.size(), 5u);
  double best_possible = 0.0;
  for (size_t i = 0; i < space.size(); ++i) {
    best_possible = std::max(best_possible, score(i));
  }
  EXPECT_GE(score(batch[0]), 0.9 * best_possible);
}

TEST(AnnealTest, ExcludesMeasuredConfigs) {
  GemmOp op = MakeMatmul("mm", 256, 256, 256);
  std::vector<ScheduleConfig> space = tuner::EnumerateSpace(op);
  std::unordered_set<size_t> exclude;
  for (size_t i = 0; i < space.size() / 2; ++i) exclude.insert(i);
  auto score = [](size_t) { return 1.0; };
  Rng rng(2);
  std::vector<size_t> batch = tuner::ProposeBatch(
      space, tuner::BuildNeighborLists(space), score, exclude, 10, rng);
  for (size_t index : batch) {
    EXPECT_EQ(exclude.count(index), 0u);
  }
  // No duplicates.
  std::set<size_t> unique(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(), batch.size());
}

// ---- Strategies ----

// A synthetic task with a known measurement function, so strategy tests do
// not depend on simulator runtime.
tuner::TuningTask SyntheticTask() {
  tuner::TuningTask task;
  task.op = MakeMatmul("mm", 1024, 256, 2048);
  task.spec = target::AmpereSpec();
  task.space = tuner::EnumerateSpace(task.op);
  task.measure = [](const ScheduleConfig& config) {
    // A smooth landscape with a known optimum at deep pipelines, large-ish
    // tiles; analytical-model-like shape.
    double cycles = 1e6;
    cycles /= static_cast<double>(config.tile.tb_m) / 64.0;
    cycles /= static_cast<double>(config.tile.tb_n) / 64.0;
    cycles *= 1.0 + 0.5 / config.smem_stages;
    cycles *= 1.0 + 0.2 / config.reg_stages;
    return cycles;
  };
  return task;
}

TEST(StrategyTest, ExhaustiveFindsTheTrueOptimum) {
  tuner::TuningTask task = SyntheticTask();
  tuner::TuningResult result = tuner::ExhaustiveSearch(task);
  ASSERT_EQ(result.trials.size(), task.space.size());
  double best = result.BestInFirstK(result.trials.size());
  for (const ScheduleConfig& config : task.space) {
    EXPECT_GE(task.measure(config), best);
  }
}

TEST(StrategyTest, BestInFirstKIsMonotone) {
  tuner::TuningTask task = SyntheticTask();
  tuner::TuningResult result = tuner::GridSearch(task, 50);
  for (size_t k = 2; k <= 50; ++k) {
    EXPECT_LE(result.BestInFirstK(k), result.BestInFirstK(k - 1));
  }
}

TEST(StrategyTest, XgbTunerMeasuresDistinctConfigs) {
  tuner::TuningTask task = SyntheticTask();
  tuner::TuningResult result = tuner::XgbTuner(task, 40, {});
  std::set<size_t> unique(result.trials.begin(), result.trials.end());
  EXPECT_EQ(unique.size(), result.trials.size());
  EXPECT_EQ(result.trials.size(), 40u);
}

TEST(StrategyTest, TrialCounterIncludesWarmSeeds) {
  tuner::TuningTask task = SyntheticTask();
  tuner::XgbOptions options;
  for (size_t i = 0; i < 8; ++i) options.warm_seeds.push_back(7 * i);
  obs::Counter& trials = obs::Registry::Global().GetCounter("tuner.trials");
  uint64_t before = trials.Value();
  tuner::TuningResult result = tuner::XgbTuner(task, 32, options);
  ASSERT_EQ(result.trials.size(), 32u);
  EXPECT_EQ(trials.Value() - before, result.trials.size())
      << "every measured config, warm seeds included, is a trial";
}

// The tuner fits its model only when a proposal round is about to read it:
// never after the last batch, and never on the analytical pretrain alone
// when warm-start seeds are measured before round 0.
TEST(StrategyTest, RefitsOnlyWhenARoundReadsTheModel) {
  tuner::TuningTask task = SyntheticTask();
  obs::Counter& refits = obs::Registry::Global().GetCounter("tuner.refits");
  auto refits_of = [&](const tuner::XgbOptions& options, size_t trials) {
    uint64_t before = refits.Value();
    EXPECT_EQ(tuner::XgbTuner(task, trials, options).trials.size(), trials);
    return refits.Value() - before;
  };
  tuner::XgbOptions cold;
  cold.pretrain_with_analytical = true;
  tuner::XgbOptions warm = cold;
  for (size_t i = 0; i < 8; ++i) warm.warm_seeds.push_back(7 * i);
  EXPECT_EQ(refits_of(warm, 32), 3u) << "seeds, then three guided rounds";
  EXPECT_EQ(refits_of(cold, 32), 4u) << "four guided rounds of eight";
  EXPECT_EQ(refits_of(warm, 8), 0u) << "seeds fill the budget: no round";
}

// With a logger attached, every kRefit is followed by the first kProposed
// of a model-guided round, which proposes the trial after the fit's last
// row; every model-guided round starts that way; and the search ends on a
// measurement, not a fit.
TEST(StrategyTest, EachRefitPrecedesAGuidedRoundsFirstProposal) {
  tuner::TuningTask task = SyntheticTask();
  obs::Counter& refits = obs::Registry::Global().GetCounter("tuner.refits");
  using Kind = tuner::TrialEvent::Kind;
  for (bool pretrain : {false, true}) {
    for (bool warm : {false, true}) {
      tuner::XgbOptions options;
      options.seed = 4;
      options.pretrain_with_analytical = pretrain;
      if (warm) {
        for (size_t i = 0; i < 8; ++i) options.warm_seeds.push_back(5 * i);
      }
      std::vector<tuner::TrialEvent> events;
      options.logger = [&events](const tuner::TrialEvent& event) {
        events.push_back(event);
      };
      uint64_t before = refits.Value();
      tuner::XgbTuner(task, 30, options);
      SCOPED_TRACE(::testing::Message()
                   << "pretrain " << pretrain << ", warm " << warm);
      ASSERT_FALSE(events.empty());
      EXPECT_EQ(events.back().kind, Kind::kMeasured);
      uint64_t logged_refits = 0;
      for (size_t i = 0; i < events.size(); ++i) {
        const tuner::TrialEvent& event = events[i];
        if (event.kind == Kind::kRefit) {
          ++logged_refits;
          ASSERT_LT(i + 1, events.size());
          EXPECT_EQ(events[i + 1].kind, Kind::kProposed);
          EXPECT_EQ(events[i + 1].round, event.round + 1);
          EXPECT_EQ(events[i + 1].trial,
                    static_cast<size_t>(event.training_size));
        }
        bool first_proposal =
            event.kind == Kind::kProposed &&
            (i == 0 || events[i - 1].kind != Kind::kProposed);
        if (first_proposal && event.round >= 0) {
          bool guided = !std::isnan(event.predicted_score);
          EXPECT_EQ(i > 0 && events[i - 1].kind == Kind::kRefit, guided)
              << "round " << event.round;
        }
      }
      EXPECT_EQ(logged_refits, refits.Value() - before);
    }
  }
}

// 64-bit FNV-1a over each trial's space index and measured-cycle bits.
uint64_t HashTrials(const std::vector<tuner::TuningResult>& results) {
  std::vector<double> fields;
  for (const tuner::TuningResult& result : results) {
    for (size_t i = 0; i < result.trials.size(); ++i) {
      fields.push_back(static_cast<double>(result.trials[i]));
      fields.push_back(result.measured[i]);
    }
  }
  return HashBits(fields);
}

// Pins the search itself: the trials, in order, and their simulated cycles
// for fixed-seed 32-trial pretrained tunes of two Fig. 10 operators, cold
// and then warm-started from a store holding the other operator's tuning.
// A change to proposals, refit scheduling, the model or the simulator that
// moves any trial fails here.
TEST(StrategyTest, Fig10TrialSequencesArePinned) {
  target::GpuSpec spec = target::AmpereSpec();
  tuner::TuningTask qkv =
      tuner::MakeSimulatorTask(workloads::FindOp("MM_BERT_QKV"), spec);
  tuner::TuningTask sv =
      tuner::MakeSimulatorTask(workloads::FindOp("BMM_BERT_SV"), spec);
  tuner::XgbOptions options;
  options.pretrain_with_analytical = true;
  options.seed = 3;
  tuner::TuningResult cold_qkv = tuner::XgbTuner(qkv, 32, options);
  tuner::TuningResult cold_sv = tuner::XgbTuner(sv, 32, options);
  tuner::TuningStore qkv_store;
  tuner::TuningStore sv_store;
  tuner::StoreTuning(qkv, cold_qkv, qkv_store);
  tuner::StoreTuning(sv, cold_sv, sv_store);
  tuner::XgbOptions warm = options;
  warm.warm_seeds = tuner::FindWarmStart(sv, qkv_store).seeds;
  ASSERT_FALSE(warm.warm_seeds.empty());
  tuner::TuningResult warm_sv = tuner::XgbTuner(sv, 32, warm);
  warm.warm_seeds = tuner::FindWarmStart(qkv, sv_store).seeds;
  ASSERT_FALSE(warm.warm_seeds.empty());
  tuner::TuningResult warm_qkv = tuner::XgbTuner(qkv, 32, warm);
  EXPECT_EQ(HashTrials({cold_qkv, cold_sv}), 13758463243322733302ull);
  EXPECT_EQ(HashTrials({warm_sv, warm_qkv}), 15646801407088274599ull);
}

TEST(StrategyTest, XgbBeatsGridAtSmallBudgets) {
  tuner::TuningTask task = SyntheticTask();
  double exhaustive_best =
      tuner::ExhaustiveSearch(task).BestInFirstK(task.space.size());
  double grid = tuner::GridSearch(task, 40).BestInFirstK(40);
  // Average XGB over seeds to keep the test robust.
  double xgb_sum = 0.0;
  for (uint64_t seed : {1, 2, 3}) {
    tuner::XgbOptions options;
    options.seed = seed;
    xgb_sum += tuner::XgbTuner(task, 40, options).BestInFirstK(40);
  }
  double xgb = xgb_sum / 3.0;
  EXPECT_LT(xgb, grid);
  EXPECT_LE(exhaustive_best, xgb);
}

// The PR 2 invariant: every strategy's TuningResult — trial order AND
// measured cycles — is bit-identical whatever ALCOP_THREADS is, because
// proposal/refit stay on the caller thread and measurement slots are
// owned per index. Runs the real simulator (cold cache each time) so
// concurrent compiles are exercised, not just cache lookups.
TEST(StrategyTest, ResultsAreThreadCountInvariant) {
  GemmOp op = MakeMatmul("mm", 1024, 64, 2048);
  tuner::SpaceOptions space_options;
  space_options.tb_m = {64, 128};
  space_options.tb_n = {32, 64};
  space_options.tb_k = {32, 64};
  space_options.warp_splits = {{2, 1}, {2, 2}};
  tuner::TuningTask task =
      tuner::MakeSimulatorTask(op, target::AmpereSpec(), space_options);
  ASSERT_GE(task.space.size(), 20u);

  auto run_all = [&]() {
    sim::ResetSimCache();  // force real concurrent compiles
    std::vector<tuner::TuningResult> results;
    results.push_back(tuner::ExhaustiveSearch(task));
    results.push_back(tuner::GridSearch(task, 12));
    results.push_back(tuner::AnalyticalRanking(task, 12));
    tuner::XgbOptions options;
    options.seed = 5;
    options.pretrain_with_analytical = true;
    results.push_back(tuner::XgbTuner(task, 24, options));
    options.pretrain_with_analytical = false;
    results.push_back(tuner::XgbTuner(task, 24, options));
    return results;
  };

  support::SetGlobalThreads(1);
  std::vector<tuner::TuningResult> serial = run_all();
  for (int threads : {2, 8}) {
    support::SetGlobalThreads(threads);
    std::vector<tuner::TuningResult> parallel = run_all();
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t s = 0; s < serial.size(); ++s) {
      EXPECT_EQ(serial[s].trials, parallel[s].trials)
          << "strategy " << s << " at " << threads << " threads";
      EXPECT_EQ(serial[s].measured, parallel[s].measured)
          << "strategy " << s << " at " << threads << " threads";
    }
  }
  support::SetGlobalThreads(support::ThreadsFromEnv());
}

TEST(GbtTest, PredictBatchMatchesPredict) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    double a = rng.Uniform(0, 4), b = rng.Uniform(0, 4);
    x.push_back({a, b});
    y.push_back(a * b - a);
  }
  tuner::GbtModel model;
  model.Fit(x, y);
  for (int threads : {1, 8}) {
    support::SetGlobalThreads(threads);
    std::vector<double> batch = model.PredictBatch(x);
    ASSERT_EQ(batch.size(), x.size());
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(batch[i], model.Predict(x[i]));
    }
  }
  support::SetGlobalThreads(support::ThreadsFromEnv());
}

TEST(GbtTest, FitIsThreadCountInvariant) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(13);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> row;
    for (int f = 0; f < 6; ++f) row.push_back(rng.Uniform(0, 10));
    x.push_back(row);
    y.push_back(row[0] * 2.0 - row[3] + (row[1] > 5 ? 4.0 : 0.0));
  }
  support::SetGlobalThreads(1);
  tuner::GbtModel serial;
  serial.Fit(x, y);
  std::vector<double> serial_pred = serial.PredictBatch(x);
  support::SetGlobalThreads(8);
  tuner::GbtModel parallel;
  parallel.Fit(x, y);
  std::vector<double> parallel_pred = parallel.PredictBatch(x);
  EXPECT_EQ(serial_pred, parallel_pred);
  support::SetGlobalThreads(support::ThreadsFromEnv());
}

// Infeasible configs are measured through the simulator like any other
// (which answers them from the feasibility verdict without compiling):
// an exhaustive sweep measures +inf for exactly the configs
// schedule::CheckFeasibility rejects.
TEST(StrategyTest, ExhaustiveMeasuresInfinityExactlyWhereVerdictRejects) {
  GemmOp op = MakeMatmul("mm", 512, 512, 1024);
  tuner::SpaceOptions options;
  // A space straddling the occupancy cliff: 64-wide tiles fit at any
  // stage count, 256x256 tiles at 4 shared stages want 256 KB of shared
  // memory and cannot fit one SM.
  options.tb_m = {64, 256};
  options.tb_n = {64, 256};
  options.tb_k = {32, 64};
  options.warp_splits = {{2, 2}, {2, 4}};
  options.smem_stages = {2, 4};
  target::GpuSpec spec = target::AmpereSpec();
  tuner::TuningTask task = tuner::MakeSimulatorTask(op, spec, options);
  ASSERT_GE(task.space.size(), 8u);

  tuner::TuningResult result = tuner::ExhaustiveSearch(task);
  ASSERT_EQ(result.trials.size(), task.space.size());
  size_t infeasible = 0;
  for (size_t i = 0; i < result.trials.size(); ++i) {
    const ScheduleConfig& config = task.space[result.trials[i]];
    bool rejected = !schedule::CheckFeasibility(op, config, spec).feasible;
    EXPECT_EQ(std::isinf(result.measured[i]), rejected) << config.ToString();
    infeasible += rejected;
  }
  EXPECT_GT(infeasible, 0u) << "space must contain infeasible configs";
  EXPECT_LT(infeasible, result.measured.size());
}

TEST(StrategyTest, PretrainingHelpsEarlyTrials) {
  // Fig. 13's core claim: Analytical+XGB finds good schedules with very
  // few trials because the first batch is already model-guided. Use the
  // real simulator on a small space so the analytical prior is meaningful.
  GemmOp op = MakeMatmul("mm", 1024, 64, 2048);
  tuner::SpaceOptions options;
  options.tb_m = {64, 128};
  options.tb_n = {32, 64};
  options.tb_k = {32, 64};
  options.warp_splits = {{2, 1}, {2, 2}};
  tuner::TuningTask task =
      tuner::MakeSimulatorTask(op, target::AmpereSpec(), options);
  ASSERT_GE(task.space.size(), 20u);

  double plain_sum = 0.0, pretrained_sum = 0.0;
  for (uint64_t seed : {1, 2, 3, 4}) {
    tuner::XgbOptions plain;
    plain.seed = seed;
    tuner::XgbOptions pretrained;
    pretrained.seed = seed;
    pretrained.pretrain_with_analytical = true;
    plain_sum += tuner::XgbTuner(task, 8, plain).BestInFirstK(8);
    pretrained_sum += tuner::XgbTuner(task, 8, pretrained).BestInFirstK(8);
  }
  EXPECT_LE(pretrained_sum, plain_sum);
}

}  // namespace
}  // namespace alcop
