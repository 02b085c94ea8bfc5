// Randomized property tests over the whole compilation flow: random
// operators and random valid schedules (including split-K, inline orders
// and fusion modes) must always produce numerically correct pipelined
// kernels under the async-semantics checker, and the timing stack must
// stay finite and deterministic on everything the space enumerates.
#include <gtest/gtest.h>

#include <cmath>

#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/structural_equal.h"
#include "perfmodel/analytical.h"
#include "pipeline/detect.h"
#include "pipeline/transform.h"
#include "schedule/lower.h"
#include "sim/executor.h"
#include "sim/launch.h"
#include "support/check.h"
#include "support/rng.h"
#include "target/gpu_spec.h"
#include "tuner/space.h"
#include "verify/sync_mutator.h"
#include "verify/verifier.h"

namespace alcop {
namespace {

using schedule::GemmOp;
using schedule::InlineOrder;
using schedule::ScheduleConfig;

// Draws a small random problem and a random valid schedule for it.
struct RandomCase {
  GemmOp op;
  ScheduleConfig config;
  InlineOrder inline_order;
};

RandomCase DrawCase(uint64_t seed) {
  Rng rng(seed);
  RandomCase out;

  int64_t m = 32 * rng.UniformInt(1, 4);
  int64_t n = 32 * rng.UniformInt(1, 4);
  int64_t k = 16 * rng.UniformInt(2, 12);
  int64_t batch = rng.UniformInt(1, 3);
  out.op = schedule::MakeBatchMatmul("fuzz", batch, m, n, k);

  switch (rng.UniformInt(0, 3)) {
    case 0:
      out.op.a_producer_op = ir::EwiseOp::kScale;
      out.op.a_producer_param = 0.5;
      break;
    case 1:
      out.op.epilogue_op = ir::EwiseOp::kRelu;
      break;
    default:
      break;
  }
  out.inline_order = out.op.a_producer_op == ir::EwiseOp::kNone
                         ? InlineOrder::kAfterPipelining
                         : static_cast<InlineOrder>(rng.UniformInt(0, 2));

  // Sample a valid config from a small space (plus random split-K and
  // fusion toggles).
  tuner::SpaceOptions options;
  options.tb_m = {32, 64};
  options.tb_n = {32, 64};
  options.tb_k = {16, 32};
  options.warp_splits = {{1, 1}, {2, 1}, {2, 2}};
  options.warp_k = {8, 16};
  options.smem_stages = {1, 2, 3, 4};
  options.reg_stages = {1, 2};
  options.split_k = {1, 2};
  std::vector<ScheduleConfig> space = tuner::EnumerateSpace(out.op, options);
  ALCOP_CHECK(!space.empty());
  out.config = space[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(space.size()) - 1))];
  out.config.inner_fusion = rng.UniformInt(0, 1) == 1;
  return out;
}

class PipelineFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineFuzz, RandomScheduleIsCorrect) {
  RandomCase c = DrawCase(GetParam());
  SCOPED_TRACE("op " + std::to_string(c.op.batch) + "x" +
               std::to_string(c.op.m) + "x" + std::to_string(c.op.n) + "x" +
               std::to_string(c.op.k) + " config " + c.config.ToString());

  schedule::Schedule sched(c.op, c.config, c.inline_order);
  pipeline::AutoPipeline(sched, target::AmpereSpec());
  schedule::LoweredKernel kernel = schedule::LowerSchedule(sched);
  pipeline::TransformResult transformed =
      pipeline::ApplyPipelineTransform(kernel.stmt, c.config.inner_fusion);

  Rng data_rng(GetParam() * 7919 + 3);
  std::vector<float> a(static_cast<size_t>(c.op.batch * c.op.m * c.op.k));
  std::vector<float> b(static_cast<size_t>(c.op.batch * c.op.n * c.op.k));
  for (float& v : a) v = static_cast<float>(data_rng.Uniform(-1, 1));
  for (float& v : b) v = static_cast<float>(data_rng.Uniform(-1, 1));

  sim::Executor exec;
  exec.Bind(kernel.a, a);
  exec.Bind(kernel.b, b);
  ASSERT_NO_THROW(exec.Run(transformed.stmt));

  std::vector<float> expected = sim::ReferenceGemm(
      a, b, c.op.batch, c.op.m, c.op.n, c.op.k, c.op.a_producer_op,
      c.op.a_producer_param, c.op.epilogue_op, c.op.epilogue_param);
  const std::vector<float>& got = exec.Data(kernel.c);
  ASSERT_EQ(got.size(), expected.size());
  // Tolerance scales with the reduction length.
  float tol = 1e-5f * static_cast<float>(c.op.k);
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(got[i], expected[i], tol) << "element " << i;
  }
}

TEST_P(PipelineFuzz, TimingIsFiniteAndDeterministic) {
  RandomCase c = DrawCase(GetParam());
  target::GpuSpec spec = target::AmpereSpec();
  sim::KernelTiming first = sim::CompileAndSimulate(c.op, c.config, spec);
  sim::KernelTiming second = sim::CompileAndSimulate(c.op, c.config, spec);
  if (!first.feasible) {
    EXPECT_FALSE(second.feasible);
    return;
  }
  EXPECT_TRUE(std::isfinite(first.cycles));
  EXPECT_GT(first.cycles, 0.0);
  EXPECT_EQ(first.cycles, second.cycles);
  // Interpreter-vs-replay differential on the random schedule: the
  // bytecode path (which CompileAndSimulate uses) must agree bit for bit
  // with the AST-interpreter oracle on every mutated draw.
  sim::CompiledKernel compiled = sim::CompileKernel(c.op, c.config, spec);
  sim::KernelTiming interpreted = sim::InterpretKernel(compiled, spec);
  EXPECT_TRUE(interpreted.feasible);
  EXPECT_EQ(interpreted.cycles, first.cycles) << c.config.ToString();
  EXPECT_EQ(interpreted.microseconds, first.microseconds);
  EXPECT_EQ(interpreted.batches, first.batches);
  // The analytical model must also be finite on any feasible schedule.
  double predicted = perfmodel::PredictCycles(c.op, c.config, spec);
  EXPECT_TRUE(std::isfinite(predicted)) << c.config.ToString();
}

TEST_P(PipelineFuzz, TransformedIrRoundTripsThroughText) {
  RandomCase c = DrawCase(GetParam());
  schedule::Schedule sched(c.op, c.config, c.inline_order);
  pipeline::AutoPipeline(sched, target::AmpereSpec());
  schedule::LoweredKernel kernel = schedule::LowerSchedule(sched);
  pipeline::TransformResult transformed =
      pipeline::ApplyPipelineTransform(kernel.stmt, c.config.inner_fusion);

  std::vector<ir::Buffer> externals = {kernel.a, kernel.b, kernel.c};
  if (kernel.a_ew != nullptr) externals.push_back(kernel.a_ew);
  if (kernel.workspace != nullptr) externals.push_back(kernel.workspace);

  std::string printed = ir::ToString(transformed.stmt);
  ir::Stmt reparsed = ir::ParseStmt(printed, externals);
  EXPECT_EQ(ir::ToString(reparsed), printed) << c.config.ToString();
  EXPECT_TRUE(ir::StructuralEqual(reparsed, transformed.stmt))
      << c.config.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz,
                         ::testing::Range<uint64_t>(0, 40));

// ---- Static/dynamic sync-mutation differential ----
//
// For every sync statement of every compiled kernel below, apply each of
// the four mutations (drop / duplicate / shift earlier / shift later) plus
// a wait_ahead perturbation, then check that the static verifier and the
// executor's dynamic checker reach the same verdict: the mutant either
// passes both or fails both. This is the property that justifies trusting
// the static verdict without execution. Everything is seeded through
// support/rng, so a failure reproduces exactly.

struct MutationCase {
  int64_t k;
  int smem_stages;
  int reg_stages;
  bool inner_fusion;
};

TEST(SyncMutationDifferential, StaticVerdictMatchesExecutor) {
  const target::GpuSpec spec = target::AmpereSpec();
  // K is sized so the serial ko loop always has at least smem_stages
  // iterations; both fusion modes run for each stage pairing.
  const MutationCase cases[] = {
      {96, 3, 2, true},  {96, 3, 2, false},  {64, 2, 2, true},
      {64, 2, 2, false}, {160, 4, 2, true},  {160, 4, 2, false},
  };
  const verify::SyncMutation kMutations[] = {
      verify::SyncMutation::kDrop,
      verify::SyncMutation::kDuplicate,
      verify::SyncMutation::kShiftEarlier,
      verify::SyncMutation::kShiftLater,
  };

  Rng data_rng(0xA1C09);
  int total = 0;
  for (const MutationCase& c : cases) {
    GemmOp op = schedule::MakeMatmul("mutfuzz", 32, 32, c.k);
    ScheduleConfig config;
    config.tile = {.tb_m = 32, .tb_n = 32, .tb_k = 32,
                   .warp_m = 16, .warp_n = 16, .warp_k = 16};
    config.smem_stages = c.smem_stages;
    config.reg_stages = c.reg_stages;
    config.inner_fusion = c.inner_fusion;

    schedule::Schedule sched(op, config, InlineOrder::kAfterPipelining);
    pipeline::AutoPipeline(sched, spec);
    schedule::LoweredKernel kernel = schedule::LowerSchedule(sched);
    pipeline::TransformResult transformed =
        pipeline::ApplyPipelineTransform(kernel.stmt, c.inner_fusion);
    ASSERT_TRUE(verify::VerifyProgram(transformed.stmt).Clean());

    std::vector<float> a(static_cast<size_t>(op.m * op.k));
    std::vector<float> b(static_cast<size_t>(op.n * op.k));
    for (float& v : a) v = static_cast<float>(data_rng.Uniform(-1, 1));
    for (float& v : b) v = static_cast<float>(data_rng.Uniform(-1, 1));

    auto check_mutant = [&](const ir::Stmt& mutant,
                            const std::string& label) {
      ++total;
      bool static_fails = verify::VerifyProgram(mutant).HasSyncError();
      bool dynamic_fails = false;
      try {
        sim::Executor exec;
        exec.Bind(kernel.a, a);
        exec.Bind(kernel.b, b);
        exec.Run(mutant);
      } catch (const CheckError&) {
        dynamic_fails = true;
      }
      EXPECT_EQ(static_fails, dynamic_fails)
          << label << " (k=" << c.k << " smem=" << c.smem_stages
          << " reg=" << c.reg_stages
          << (c.inner_fusion ? " fused" : " recursive") << ")\n"
          << verify::VerifyProgram(mutant).Render();
    };

    std::vector<verify::SyncSite> sites =
        verify::ListSyncSites(transformed.stmt);
    ASSERT_FALSE(sites.empty());
    for (size_t s = 0; s < sites.size(); ++s) {
      for (verify::SyncMutation mutation : kMutations) {
        ir::Stmt mutant =
            verify::MutateSyncSite(transformed.stmt, s, mutation);
        if (mutant == nullptr) continue;  // mutation inapplicable here
        check_mutant(mutant, std::string(verify::SyncMutationName(mutation)) +
                                 " " + sites[s].label);
      }
      if (sites[s].stmt->sync_kind == ir::SyncKind::kConsumerWait) {
        ir::Stmt slack = verify::SetWaitAhead(
            transformed.stmt, s, sites[s].stmt->wait_ahead + 1);
        if (slack != nullptr) {
          check_mutant(slack, "wait_ahead+1 " + sites[s].label);
        }
      }
    }
  }
  EXPECT_GE(total, 200) << "differential must cover at least 200 mutants";
}

}  // namespace
}  // namespace alcop
