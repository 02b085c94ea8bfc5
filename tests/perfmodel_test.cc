// Tests of the Table-I analytical performance model and the bottleneck
// baseline: the pipeline latency model's two regimes, the
// pipelining/tiling/occupancy trade-off, and ranking quality against the
// simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "perfmodel/analytical.h"
#include "perfmodel/bottleneck.h"
#include "perfmodel/calibration.h"
#include "sim/launch.h"
#include "target/gpu_spec.h"
#include "tuner/space.h"
#include "workloads/ops.h"

namespace alcop {
namespace {

using perfmodel::AnalyticalBreakdown;
using perfmodel::AnalyticalModel;
using perfmodel::PipelineLatencyModel;
using schedule::GemmOp;
using schedule::MakeMatmul;
using schedule::ScheduleConfig;

ScheduleConfig Config(int smem_stages, int reg_stages) {
  ScheduleConfig config;
  config.tile = {.tb_m = 128, .tb_n = 128, .tb_k = 32,
                 .warp_m = 64, .warp_n = 64, .warp_k = 16};
  config.smem_stages = smem_stages;
  config.reg_stages = reg_stages;
  return config;
}

// ---- Pipeline latency model (Table I, middle row) ----

TEST(PipelineLatencyModelTest, ComputeBoundRegime) {
  // T_load <= (N_pipe*N_mplx - 1) * T_use: the loop runs at compute speed.
  EXPECT_DOUBLE_EQ(PipelineLatencyModel(100.0, 60.0, 10, 3, 2), 600.0);
}

TEST(PipelineLatencyModelTest, LoadBoundRegime) {
  // T_load too large: (T_load + T_use) * N / N_pipe.
  EXPECT_DOUBLE_EQ(PipelineLatencyModel(1000.0, 60.0, 10, 2, 2),
                   (1000.0 + 60.0) * 10 / 2);
}

TEST(PipelineLatencyModelTest, BoundaryIsComputeBound) {
  // Exactly at the boundary the compute-bound branch applies.
  double t_load = (3 * 2 - 1) * 60.0;
  EXPECT_DOUBLE_EQ(PipelineLatencyModel(t_load, 60.0, 4, 3, 2), 240.0);
}

TEST(PipelineLatencyModelTest, NoPipelineNoMultiplexSerializes) {
  // N_pipe = N_mplx = 1: every load is exposed.
  EXPECT_DOUBLE_EQ(PipelineLatencyModel(100.0, 60.0, 5, 1, 1),
                   (100.0 + 60.0) * 5);
}

TEST(PipelineLatencyModelTest, MorePipelineStagesNeverHurt) {
  for (int pipe = 1; pipe <= 6; ++pipe) {
    double shallow = PipelineLatencyModel(500.0, 80.0, 16, pipe, 2);
    double deep = PipelineLatencyModel(500.0, 80.0, 16, pipe + 1, 2);
    EXPECT_LE(deep, shallow) << "stages " << pipe << " -> " << pipe + 1;
  }
}

// ---- Full model ----

TEST(AnalyticalModelTest, FeasibleBreakdownIsConsistent) {
  GemmOp op = MakeMatmul("mm", 2048, 2048, 2048);
  AnalyticalBreakdown b =
      AnalyticalModel(op, Config(3, 2), target::AmpereSpec());
  ASSERT_TRUE(b.feasible) << b.reason;
  EXPECT_GT(b.cycles, 0.0);
  EXPECT_GT(b.t_main_loop, 0.0);
  EXPECT_GT(b.threadblocks_per_sm, 0);
  EXPECT_GT(b.batches, 0);
  // The kernel total covers at least batches x main loop.
  EXPECT_GE(b.cycles, b.t_main_loop * static_cast<double>(b.batches));
}

TEST(AnalyticalModelTest, PipeliningPredictedToHelpWhenLoadBound) {
  GemmOp op = MakeMatmul("mm", 1024, 64, 2048);
  ScheduleConfig config;
  config.tile = {.tb_m = 128, .tb_n = 64, .tb_k = 32,
                 .warp_m = 32, .warp_n = 32, .warp_k = 16};
  target::GpuSpec spec = target::AmpereSpec();
  double base = perfmodel::PredictCycles(op, config, spec);
  config.smem_stages = 4;
  config.reg_stages = 2;
  double pipelined = perfmodel::PredictCycles(op, config, spec);
  EXPECT_LT(pipelined, base);
}

TEST(AnalyticalModelTest, StageInflationEventuallyCostsOccupancy) {
  // The pipelining/tiling trade-off: on big tiles, deep stages reduce
  // N_threadblk_per_SM; the model must reflect the occupancy loss.
  GemmOp op = MakeMatmul("mm", 2048, 2048, 2048);
  target::GpuSpec spec = target::AmpereSpec();
  AnalyticalBreakdown two = AnalyticalModel(op, Config(2, 1), spec);
  AnalyticalBreakdown eight = AnalyticalModel(op, Config(8, 1), spec);
  ASSERT_TRUE(two.feasible);
  ASSERT_TRUE(eight.feasible);
  EXPECT_LT(eight.threadblocks_per_sm, two.threadblocks_per_sm);
}

TEST(AnalyticalModelTest, InvalidScheduleIsInfinity) {
  GemmOp op = MakeMatmul("mm", 100, 100, 100);
  EXPECT_TRUE(std::isinf(
      perfmodel::PredictCycles(op, Config(2, 1), target::AmpereSpec())));
}

TEST(AnalyticalModelTest, UnfittableScheduleIsInfinity) {
  GemmOp op = MakeMatmul("mm", 2048, 2048, 2048);
  ScheduleConfig config = Config(8, 2);
  config.tile.tb_m = 256;
  config.tile.tb_n = 256;
  EXPECT_TRUE(std::isinf(
      perfmodel::PredictCycles(op, config, target::AmpereSpec())));
}

// ---- Bottleneck model ----

TEST(BottleneckModelTest, BlindToPipelineStages) {
  GemmOp op = MakeMatmul("mm", 2048, 2048, 2048);
  target::GpuSpec spec = target::AmpereSpec();
  EXPECT_DOUBLE_EQ(perfmodel::BottleneckPredictCycles(op, Config(1, 1), spec),
                   perfmodel::BottleneckPredictCycles(op, Config(4, 2), spec));
}

TEST(BottleneckModelTest, SensitiveToTiling) {
  // Tile size changes data reuse, which the bottleneck model does see.
  GemmOp op = MakeMatmul("mm", 2048, 2048, 2048);
  target::GpuSpec spec = target::AmpereSpec();
  ScheduleConfig small = Config(1, 1);
  small.tile = {.tb_m = 32, .tb_n = 32, .tb_k = 16,
                .warp_m = 32, .warp_n = 32, .warp_k = 16};
  EXPECT_GT(perfmodel::BottleneckPredictCycles(op, small, spec),
            perfmodel::BottleneckPredictCycles(op, Config(1, 1), spec));
}

// ---- Model-vs-simulator ranking quality ----

TEST(AnalyticalModelTest, RanksBetterThanBottleneckOnPipelineSweep) {
  // Across a stage sweep at fixed tiles, the analytical model must order
  // configurations consistently with the simulator more often than the
  // bottleneck model does (which cannot order them at all).
  GemmOp op = MakeMatmul("mm", 1024, 256, 2048);
  target::GpuSpec spec = target::AmpereSpec();
  std::vector<ScheduleConfig> configs;
  for (int smem : {1, 2, 3, 4}) {
    for (int reg : {1, 2}) configs.push_back(Config(smem, reg));
  }
  int analytical_agree = 0, bottleneck_agree = 0, pairs = 0;
  std::vector<double> simulated, analytical, bottleneck;
  for (const ScheduleConfig& config : configs) {
    simulated.push_back(sim::CompileAndSimulate(op, config, spec).cycles);
    analytical.push_back(perfmodel::PredictCycles(op, config, spec));
    bottleneck.push_back(
        perfmodel::BottleneckPredictCycles(op, config, spec));
  }
  for (size_t i = 0; i < configs.size(); ++i) {
    for (size_t j = i + 1; j < configs.size(); ++j) {
      if (std::abs(simulated[i] - simulated[j]) < 1e-9) continue;
      ++pairs;
      bool sim_less = simulated[i] < simulated[j];
      analytical_agree += (analytical[i] < analytical[j]) == sim_less;
      bottleneck_agree += (bottleneck[i] < bottleneck[j]) == sim_less;
    }
  }
  // The bottleneck model ties on every stage-only difference (ties score
  // half by chance in this pairwise count); the analytical model must do
  // at least as well overall and substantially better than chance.
  EXPECT_GE(analytical_agree, bottleneck_agree);
  EXPECT_GT(static_cast<double>(analytical_agree), 0.7 * pairs);
}

// `alcop_cli calibrate --fit` on the shipped spec: a change to the model
// or the simulator that moves the fit fails here rather than leaving the
// checked-in constants stale.
TEST(AnalyticalModelTest, AmpereConstantsAreTheFitsChoice) {
  target::GpuSpec spec = target::AmpereSpec();
  perfmodel::ModelFitReport report =
      perfmodel::FitModelConstants(workloads::BenchmarkOps(), spec);
  EXPECT_EQ(report.samples, 1959);
  EXPECT_EQ(report.fit.iter_overhead_cycles,
            spec.model_fit.iter_overhead_cycles);
  EXPECT_EQ(report.fit.fill_scale, spec.model_fit.fill_scale);
}

}  // namespace
}  // namespace alcop
