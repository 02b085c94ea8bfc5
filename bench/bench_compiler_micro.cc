// Compiler micro-benchmarks (google-benchmark): throughput of the
// compilation pipeline itself — lowering, the pipelining transformation,
// functional execution, trace building + discrete-event simulation, the
// trace compiler on long-k kernels, the analytical model, feature
// extraction, GBT fitting and prediction at the size of a tuner refit,
// a cached pre-trained tuner search, the annealing adjacency of a tuner's
// space, and
// the two static checkers (verifier and alcop-lint) on one Fig. 10 kernel.
// These bound the cost of one tuning trial, which is what makes the
// Fig. 12/13 experiments tractable.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "analysis/pass.h"
#include "perfmodel/analytical.h"
#include "pipeline/detect.h"
#include "pipeline/transform.h"
#include "schedule/lower.h"
#include "sim/executor.h"
#include "sim/launch.h"
#include "support/rng.h"
#include "target/gpu_spec.h"
#include "tuner/anneal.h"
#include "tuner/feature.h"
#include "tuner/gbt.h"
#include "tuner/space.h"
#include "tuner/strategy.h"
#include "verify/verifier.h"
#include "workloads/ops.h"

namespace {

using namespace alcop;  // NOLINT(build/namespaces) - bench driver

schedule::GemmOp BenchOp() {
  return schedule::MakeMatmul("mm", 2048, 2048, 2048);
}

schedule::ScheduleConfig BenchConfig() {
  schedule::ScheduleConfig config;
  config.tile = {.tb_m = 128, .tb_n = 128, .tb_k = 32,
                 .warp_m = 64, .warp_n = 64, .warp_k = 16};
  config.smem_stages = 3;
  config.reg_stages = 2;
  return config;
}

void BM_LowerSchedule(benchmark::State& state) {
  schedule::GemmOp op = BenchOp();
  target::GpuSpec spec = target::AmpereSpec();
  for (auto _ : state) {
    schedule::Schedule sched(op, BenchConfig());
    pipeline::AutoPipeline(sched, spec);
    benchmark::DoNotOptimize(schedule::LowerSchedule(sched).stmt);
  }
}
BENCHMARK(BM_LowerSchedule);

void BM_PipelineTransform(benchmark::State& state) {
  schedule::GemmOp op = BenchOp();
  target::GpuSpec spec = target::AmpereSpec();
  schedule::Schedule sched(op, BenchConfig());
  pipeline::AutoPipeline(sched, spec);
  schedule::LoweredKernel kernel = schedule::LowerSchedule(sched);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pipeline::ApplyPipelineTransform(kernel.stmt).stmt);
  }
}
BENCHMARK(BM_PipelineTransform);

void BM_FunctionalExecution(benchmark::State& state) {
  schedule::GemmOp op = schedule::MakeMatmul("mm", 64, 64, 64);
  schedule::ScheduleConfig config;
  config.tile = {.tb_m = 32, .tb_n = 32, .tb_k = 16,
                 .warp_m = 16, .warp_n = 16, .warp_k = 8};
  config.smem_stages = 3;
  config.reg_stages = 2;
  target::GpuSpec spec = target::AmpereSpec();
  sim::CompiledKernel compiled = sim::CompileKernel(op, config, spec);
  Rng rng(1);
  std::vector<float> a(static_cast<size_t>(op.m * op.k));
  std::vector<float> b(static_cast<size_t>(op.n * op.k));
  for (float& v : a) v = static_cast<float>(rng.Uniform(-1, 1));
  for (float& v : b) v = static_cast<float>(rng.Uniform(-1, 1));
  for (auto _ : state) {
    sim::Executor exec;
    exec.Bind(compiled.kernel.a, a);
    exec.Bind(compiled.kernel.b, b);
    exec.Run(compiled.transformed.stmt);
    benchmark::DoNotOptimize(exec.Data(compiled.kernel.c));
  }
}
BENCHMARK(BM_FunctionalExecution);

void BM_TimingSimulation(benchmark::State& state) {
  schedule::GemmOp op = BenchOp();
  target::GpuSpec spec = target::AmpereSpec();
  schedule::ScheduleConfig config = BenchConfig();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::CompileAndSimulate(op, config, spec).cycles);
  }
}
BENCHMARK(BM_TimingSimulation);

// The trace compiler alone (sim-compile without the launch plan) on two
// long-k kernels of 512 ko iterations: a single-level pipeline
// (reg_stages 1), whose steady-state loop reads its variable in no
// control, and a fused multi-level one (reg_stages 2), whose ko loop
// guards the inner prologue with `if (ko == 0)`.
void BM_CompileTraceProgram(benchmark::State& state) {
  schedule::GemmOp op = schedule::MakeMatmul("mm", 512, 512, 16384);
  target::GpuSpec spec = target::AmpereSpec();
  schedule::ScheduleConfig config = BenchConfig();
  config.reg_stages = static_cast<int>(state.range(0));
  sim::CompiledKernel compiled = sim::CompileKernel(op, config, spec);
  sim::TraceCompileOptions options;
  options.groups = sim::PipelineGroups(compiled.transformed);
  int64_t ops = 0;
  for (auto _ : state) {
    sim::MicroOpProgram program =
        sim::CompileTraceProgram(compiled.transformed.stmt,
                                 compiled.kernel.num_warps, spec, options);
    ops = program.TotalOps();
    benchmark::DoNotOptimize(program.ops.data());
  }
  state.counters["ops"] = static_cast<double>(ops);
}
BENCHMARK(BM_CompileTraceProgram)
    ->ArgName("reg_stages")
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMicrosecond);

void BM_AnalyticalModel(benchmark::State& state) {
  schedule::GemmOp op = BenchOp();
  target::GpuSpec spec = target::AmpereSpec();
  schedule::ScheduleConfig config = BenchConfig();
  for (auto _ : state) {
    benchmark::DoNotOptimize(perfmodel::PredictCycles(op, config, spec));
  }
}
BENCHMARK(BM_AnalyticalModel);

void BM_SpaceEnumeration(benchmark::State& state) {
  schedule::GemmOp op = BenchOp();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuner::EnumerateSpace(op).size());
  }
}
BENCHMARK(BM_SpaceEnumeration);

// The dataset of one XgbTuner refit at its largest: every configuration
// of a 1,920-point Fig. 10 space as an analytical pseudo-sample
// (-log(cycles), or -30 when infeasible) at the default pre-training
// weight, plus 32 simulator-measured configurations at weight 1.0.
struct RefitData {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  std::vector<double> w;
  size_t space_size = 0;
};

const RefitData& BenchRefitData() {
  static const RefitData data = [] {
    schedule::GemmOp op = workloads::FindOp("MM_BERT_QKV");
    target::GpuSpec spec = target::AmpereSpec();
    tuner::TuningTask task = tuner::MakeSimulatorTask(op, spec);
    auto score = [](double cycles) {
      return std::isfinite(cycles) ? -std::log(cycles) : -30.0;
    };
    RefitData d;
    d.space_size = task.space.size();
    for (const schedule::ScheduleConfig& config : task.space) {
      d.x.push_back(tuner::ExtractFeatures(op, config, spec));
      d.y.push_back(score(perfmodel::PredictCycles(op, config, spec)));
      d.w.push_back(tuner::kPretrainWeight);
    }
    for (size_t i = 0; i < 32; ++i) {
      size_t index = i * task.space.size() / 32;
      d.x.push_back(d.x[index]);
      d.y.push_back(score(task.measure(task.space[index])));
      d.w.push_back(1.0);
    }
    return d;
  }();
  return data;
}

void BM_GbtFit(benchmark::State& state) {
  const RefitData& data = BenchRefitData();
  for (auto _ : state) {
    tuner::GbtModel model;
    model.Fit(data.x, data.y, data.w);
    benchmark::DoNotOptimize(model.Predict(data.x[0]));
  }
  state.counters["rows"] = static_cast<double>(data.x.size());
}
BENCHMARK(BM_GbtFit)->Unit(benchmark::kMillisecond);

// The whole-space prediction behind each proposal round of a search
// without pre-training; a pre-trained search reads those scores off the
// fit instead, since every config of the space is a training row.
void BM_GbtPredictBatch(benchmark::State& state) {
  const RefitData& data = BenchRefitData();
  tuner::GbtModel model;
  model.Fit(data.x, data.y, data.w);
  std::vector<std::vector<double>> space(data.x.begin(),
                                         data.x.begin() + data.space_size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.PredictBatch(space));
  }
  state.counters["rows"] = static_cast<double>(space.size());
}
BENCHMARK(BM_GbtPredictBatch)->Unit(benchmark::kMicrosecond);

// One pre-trained 32-trial XgbTuner search of the same space, seeded as
// the first run was, so every measurement is a sim-cache lookup: the time
// is the model's four refits and the proposal rounds that read them.
void BM_XgbTune(benchmark::State& state) {
  static const tuner::TuningTask task = tuner::MakeSimulatorTask(
      workloads::FindOp("MM_BERT_QKV"), target::AmpereSpec());
  tuner::XgbOptions options;
  options.pretrain_with_analytical = true;
  options.seed = 7;
  tuner::XgbTuner(task, 32, options);  // warms the sim cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuner::XgbTuner(task, 32, options));
  }
  state.counters["configs"] = static_cast<double>(task.space.size());
}
BENCHMARK(BM_XgbTune)->Unit(benchmark::kMillisecond);

// The annealing adjacency that every XgbTuner run builds once for its
// space, on the same 1,920-point Fig. 10 space.
void BM_BuildNeighborLists(benchmark::State& state) {
  std::vector<schedule::ScheduleConfig> space =
      tuner::EnumerateSpace(workloads::FindOp("MM_BERT_QKV"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuner::BuildNeighborLists(space));
  }
  state.counters["configs"] = static_cast<double>(space.size());
}
BENCHMARK(BM_BuildNeighborLists)->Unit(benchmark::kMillisecond);

// The pipelined MM_BERT_QKV kernel at its first schedule with three
// shared and two register stages: the static checkers' input. Under
// ALCOP_VERIFY every lowering and every transformation runs the verifier.
const ir::Stmt& Fig10Kernel() {
  static const ir::Stmt kernel = [] {
    const schedule::GemmOp& op = workloads::FindOp("MM_BERT_QKV");
    std::vector<schedule::ScheduleConfig> space = tuner::EnumerateSpace(op);
    schedule::ScheduleConfig config = space.front();
    for (const schedule::ScheduleConfig& candidate : space) {
      if (candidate.smem_stages >= 3 && candidate.reg_stages >= 2) {
        config = candidate;
        break;
      }
    }
    return sim::CompileKernel(op, config, target::AmpereSpec())
        .transformed.stmt;
  }();
  return kernel;
}

void BM_VerifyProgram(benchmark::State& state) {
  const ir::Stmt& kernel = Fig10Kernel();
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify::VerifyProgram(kernel));
  }
}
BENCHMARK(BM_VerifyProgram)->Unit(benchmark::kMicrosecond);

void BM_LintProgram(benchmark::State& state) {
  const ir::Stmt& kernel = Fig10Kernel();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::LintProgram(kernel));
  }
}
BENCHMARK(BM_LintProgram)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
