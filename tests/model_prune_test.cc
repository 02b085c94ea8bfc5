// Model-guided search pruning: the analytical keep-set
// (tuner::SpaceOptions::model_topk) must leave the space, trial order and
// best-found result untouched while skipping most measurements, and the
// rank-quality metrics it is gated on must behave like rank metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "obs/metrics.h"
#include "perfmodel/calibration.h"
#include "target/gpu_spec.h"
#include "tuner/space.h"
#include "tuner/strategy.h"
#include "workloads/ops.h"

namespace alcop {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double BestMeasured(const tuner::TuningResult& result) {
  double best = kInf;
  for (double cycles : result.measured) {
    if (cycles < best) best = cycles;
  }
  return best;
}

size_t FiniteMeasures(const tuner::TuningResult& result) {
  size_t n = 0;
  for (double cycles : result.measured) {
    if (cycles < kInf) ++n;
  }
  return n;
}

TEST(ModelPrune, ExhaustiveBestUnchangedAtDefaultCut) {
  target::GpuSpec spec = target::AmpereSpec();
  const schedule::GemmOp& op = workloads::FindOp("MM_RN50_FC");

  tuner::TuningTask off = tuner::MakeSimulatorTask(op, spec);
  tuner::SpaceOptions options;
  options.model_topk = tuner::SpaceOptions::kDefaultModelTopK;
  tuner::TuningTask on = tuner::MakeSimulatorTask(op, spec, options);

  // Pruning must not touch the space itself: same configs, same order.
  ASSERT_EQ(off.space.size(), on.space.size());

  obs::Counter& pruned =
      obs::Registry::Global().GetCounter("tuner.pruned_model");
  uint64_t before = pruned.Value();
  tuner::TuningResult full = tuner::ExhaustiveSearch(off);
  uint64_t after_off = pruned.Value();
  EXPECT_EQ(after_off, before) << "pruning counter moved with pruning off";
  tuner::TuningResult cut = tuner::ExhaustiveSearch(on);
  uint64_t after_on = pruned.Value();
  EXPECT_GT(after_on, after_off) << "pruning never fired";

  // The guarantee the 10x effective-throughput claim stands on: the best
  // config survives the cut, bit for bit.
  double best_full = BestMeasured(full);
  double best_cut = BestMeasured(cut);
  ASSERT_LT(best_full, kInf);
  EXPECT_EQ(best_full, best_cut);

  // And the cut actually skips most of the space.
  EXPECT_LT(FiniteMeasures(cut), FiniteMeasures(full));
  EXPECT_GE(FiniteMeasures(cut), 1u);
}

TEST(ModelPrune, ExplorationTailSurvivesTinyCut) {
  target::GpuSpec spec = target::AmpereSpec();
  const schedule::GemmOp& op = workloads::FindOp("BMM_GPT2_QK");

  tuner::SpaceOptions options;
  options.model_topk = 1;
  tuner::TuningTask task = tuner::MakeSimulatorTask(op, spec, options);
  tuner::TuningResult result = tuner::ExhaustiveSearch(task);

  // Even with a top-1 cut, every 64th config (in model-rank order) stays
  // measurable, so learned strategies keep a view of the whole space.
  size_t finite = FiniteMeasures(result);
  EXPECT_GT(finite, 1u) << "exploration tail was pruned away";
}

TEST(ModelPrune, XgbSearchUnaffectedWhenOff) {
  // With model_topk = 0 (the default), nothing changes: the task measures
  // every feasible config the static prefilter admits.
  target::GpuSpec spec = target::AmpereSpec();
  const schedule::GemmOp& op = workloads::FindOp("MM_RN50_FC");
  tuner::TuningTask task = tuner::MakeSimulatorTask(op, spec);
  obs::Counter& pruned =
      obs::Registry::Global().GetCounter("tuner.pruned_model");
  uint64_t before = pruned.Value();
  tuner::XgbOptions options;
  options.seed = 7;
  tuner::TuningResult result = tuner::XgbTuner(task, 24, options);
  EXPECT_EQ(pruned.Value(), before);
  EXPECT_LT(BestMeasured(result), kInf);
}

// ---- Rank-quality metric properties ----

TEST(RankQuality, PerfectRankingScoresOne) {
  std::vector<double> measured = {10, 20, 30, 40, 50, 60, 70, 80};
  perfmodel::RankQuality rq =
      perfmodel::ComputeRankQuality(measured, measured, 4);
  EXPECT_DOUBLE_EQ(rq.kendall_tau, 1.0);
  EXPECT_DOUBLE_EQ(rq.topk_recall, 1.0);
  EXPECT_EQ(rq.count, 8);
  EXPECT_EQ(rq.k, 4);
}

TEST(RankQuality, ReversedRankingScoresMinusOne) {
  std::vector<double> measured = {10, 20, 30, 40, 50, 60, 70, 80};
  std::vector<double> predicted = {80, 70, 60, 50, 40, 30, 20, 10};
  perfmodel::RankQuality rq =
      perfmodel::ComputeRankQuality(predicted, measured, 4);
  EXPECT_DOUBLE_EQ(rq.kendall_tau, -1.0);
  EXPECT_DOUBLE_EQ(rq.topk_recall, 0.0);
}

TEST(RankQuality, InfinitePredictionsSortLast) {
  std::vector<double> measured = {1, 2, 3, 4};
  std::vector<double> predicted = {1, 2, kInf, kInf};
  perfmodel::RankQuality rq =
      perfmodel::ComputeRankQuality(predicted, measured, 2);
  EXPECT_DOUBLE_EQ(rq.topk_recall, 1.0);
  EXPECT_GT(rq.kendall_tau, 0.0);
}

TEST(CoverageRecall, StrictMissCoveredByEquallyFastSurvivor) {
  // The measured best (index 0) is *not* in the predicted cut, but a kept
  // config (index 1) measures within 1%: covered — pruning it is
  // harmless. best_survives is still false, which is the distinction the
  // tuning bench's bit-exact best-found gate cares about.
  std::vector<double> measured = {100.0, 100.5, 200.0, 300.0};
  std::vector<double> predicted = {9.0, 1.0, 2.0, 3.0};
  perfmodel::CoverageRecall cov = perfmodel::ComputeCoverageRecall(
      predicted, measured, /*top=*/1, /*cut=*/3, /*tolerance=*/1.01);
  EXPECT_DOUBLE_EQ(cov.coverage, 1.0);
  EXPECT_FALSE(cov.best_survives);

  // With a tolerance too tight for the 0.5% gap, the miss counts.
  perfmodel::CoverageRecall tight = perfmodel::ComputeCoverageRecall(
      predicted, measured, /*top=*/1, /*cut=*/3, /*tolerance=*/1.001);
  EXPECT_DOUBLE_EQ(tight.coverage, 0.0);
}

TEST(CoverageRecall, FullCutCoversEverything) {
  std::vector<double> measured = {4, 3, 2, 1};
  std::vector<double> predicted = {1, 2, 3, 4};  // fully wrong order
  perfmodel::CoverageRecall cov = perfmodel::ComputeCoverageRecall(
      predicted, measured, /*top=*/4, /*cut=*/4, /*tolerance=*/1.0);
  EXPECT_DOUBLE_EQ(cov.coverage, 1.0);
  EXPECT_TRUE(cov.best_survives);
}

TEST(RankQuality, AnalyticalModelCoversFig10Operator) {
  // The property the default pruning cut is gated on, asserted for one
  // operator in-tree (the full 12-operator audit lives in
  // bench/calibration.cc): the measured top-32 is effectively preserved
  // by the model's top-128.
  target::GpuSpec spec = target::AmpereSpec();
  const schedule::GemmOp& op = workloads::FindOp("MM_RN50_FC");
  tuner::TuningTask task = tuner::MakeSimulatorTask(op, spec);
  const size_t n = task.space.size();
  std::vector<double> measured(n), predicted(n);
  for (size_t i = 0; i < n; ++i) {
    measured[i] = task.measure(task.space[i]);
    predicted[i] = perfmodel::PredictCycles(op, task.space[i], spec);
  }
  perfmodel::CoverageRecall cov = perfmodel::ComputeCoverageRecall(
      predicted, measured, 32, tuner::SpaceOptions::kDefaultModelTopK, 1.01);
  EXPECT_GE(cov.coverage, 0.95);
  EXPECT_TRUE(cov.best_survives);
  perfmodel::RankQuality rq =
      perfmodel::ComputeRankQuality(predicted, measured, 32);
  EXPECT_GT(rq.kendall_tau, 0.3);
}

}  // namespace
}  // namespace alcop
