// Tuning-throughput bench: measures the wall-clock effect of the parallel
// measurement engine and the compile+simulate cache on the Fig. 13
// workload, and emits one machine-readable JSON object (consumed by
// `scripts/bench.sh tuning` into BENCH_tuning.json so the perf trajectory
// is tracked from change to change).
//
// Three phases over the same strategy suite (exhaustive + grid + anal +
// 2x3 XGB runs per operator):
//   serial   : 1 thread, cold cache  — the pre-PR baseline
//   parallel : N threads, cold cache — the thread-pool speedup
//   cached   : N threads, warm cache — the memoization ceiling
//
// The thread-pool speedup scales with the machine: on a single-core host
// (hardware_cores = 1) it degenerates to ~1.0x by construction, so the
// JSON also isolates the cache's effect on the measurement path alone
// (uncached vs warm exhaustive sweep), which holds at any core count.
// Those sweeps and the model-pruning pair each take 0.03-2 s, short
// enough for host noise to swing one pass by 2x, so each pair is timed
// over kTimedPasses rounds of one pass a side, alternating which side
// goes first: the seconds are per-side medians, and each speedup is the
// median of the rounds' own ratios.
//
// Exit status is nonzero unless the phases' results agree by checksum
// across thread counts and the model-pruned sweep finds the exhaustive
// best on every operator — never because of wall time.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/launch.h"
#include "sim/sim_cache.h"
#include "support/parallel.h"
#include "target/gpu_spec.h"
#include "tuner/strategy.h"
#include "workloads/ops.h"

using namespace alcop;  // NOLINT(build/namespaces) - bench driver

namespace {

constexpr uint64_t kSeeds[] = {1, 2, 3};
constexpr size_t kMaxBudget = 50;
constexpr int kTimedPasses = 5;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// One pair of sweeps timed against each other.
struct PairedSeconds {
  double a = 0.0;      // median seconds of pass_a
  double b = 0.0;      // median seconds of pass_b
  double ratio = 0.0;  // median over rounds of a / b
};

// kTimedPasses rounds of one pass_a and one pass_b, each after an untimed
// `reset`, with the first side alternating. The two passes of a round run
// back to back, so host load lasting seconds slows both alike and
// cancels in the round's ratio; between medians of passes run one side
// after the other it does not.
template <typename Reset, typename PassA, typename PassB>
PairedSeconds TimePaired(Reset reset, PassA pass_a, PassB pass_b) {
  auto timed = [&reset](auto& pass) {
    reset();
    obs::Stopwatch watch;
    pass();
    return watch.Seconds();
  };
  std::vector<double> a, b, ratio;
  for (int i = 0; i < kTimedPasses; ++i) {
    if (i % 2 == 0) {
      a.push_back(timed(pass_a));
      b.push_back(timed(pass_b));
    } else {
      b.push_back(timed(pass_b));
      a.push_back(timed(pass_a));
    }
    ratio.push_back(b.back() > 0.0 ? a.back() / b.back() : 0.0);
  }
  return {Median(a), Median(b), Median(ratio)};
}

// The Fig. 13 strategy suite for one operator. Returns a checksum of the
// measured cycles so phases can assert they computed identical results.
double RunSuite(const tuner::TuningTask& task) {
  double checksum = 0.0;
  auto fold = [&](const tuner::TuningResult& result) {
    for (double cycles : result.measured) {
      if (cycles < 1e30) checksum += cycles;
    }
  };
  fold(tuner::ExhaustiveSearch(task));
  fold(tuner::GridSearch(task, kMaxBudget));
  fold(tuner::AnalyticalRanking(task, kMaxBudget));
  for (bool pretrain : {false, true}) {
    for (uint64_t seed : kSeeds) {
      tuner::XgbOptions options;
      options.seed = seed;
      options.pretrain_with_analytical = pretrain;
      fold(tuner::XgbTuner(task, kMaxBudget, options));
    }
  }
  return checksum;
}

double RunAllOps(const std::vector<tuner::TuningTask>& tasks) {
  double checksum = 0.0;
  for (const tuner::TuningTask& task : tasks) checksum += RunSuite(task);
  return checksum;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = support::ThreadsFromEnv();
  if (argc > 1) threads = std::max(1, std::atoi(argv[1]));
  // Clamp the request to the machine, like ThreadsFromEnv does: fanning
  // eight workers out on one core only measures scheduler contention (the
  // speedup-0.90 pathology), not the parallel engine.
  unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) threads = std::min(threads, static_cast<int>(hw));

  target::GpuSpec spec = target::AmpereSpec();
  std::vector<tuner::TuningTask> tasks;
  size_t space_total = 0;
  for (const schedule::GemmOp& op : workloads::BenchmarkOps()) {
    tasks.push_back(tuner::MakeSimulatorTask(op, spec));
    space_total += tasks.back().space.size();
  }

  // All phases time on the observability layer's trace clock
  // (obs::Stopwatch), the same clock behind ALCOP_TRACE_SCOPE spans.
  obs::Stopwatch watch;

  // Phase 1: serial baseline, cold cache.
  support::SetGlobalThreads(1);
  sim::ResetSimCache();
  watch.Restart();
  double serial_checksum = RunAllOps(tasks);
  double serial_seconds = watch.Seconds();
  sim::SimCacheStats serial_stats = sim::GetSimCacheStats();

  // Phase 2: parallel, cold cache.
  support::SetGlobalThreads(threads);
  sim::ResetSimCache();
  watch.Restart();
  double parallel_checksum = RunAllOps(tasks);
  double parallel_seconds = watch.Seconds();
  sim::SimCacheStats parallel_stats = sim::GetSimCacheStats();

  // Phase 3: warm cache (the repeated-sweep case every bench binary hits).
  watch.Restart();
  double cached_checksum = RunAllOps(tasks);
  double cached_seconds = watch.Seconds();
  sim::SimCacheStats cached_stats = sim::GetSimCacheStats();

  // Measurement path in isolation: one exhaustive sweep per operator with
  // the cache bypassed, then the same sweep through the warm cache. This
  // is the cache's contribution independent of model fitting and of how
  // many cores the host has.
  std::vector<tuner::TuningTask> direct_tasks = tasks;
  for (tuner::TuningTask& task : direct_tasks) {
    schedule::GemmOp op = task.op;
    target::GpuSpec task_spec = task.spec;
    task.measure = [op, task_spec](const schedule::ScheduleConfig& config) {
      sim::KernelTiming timing = sim::CompileAndSimulate(op, config, task_spec);
      return timing.feasible ? timing.cycles
                             : std::numeric_limits<double>::infinity();
    };
  }
  // One checksum per pass, uncached and warm alike: all must be equal.
  std::vector<double> sweep_checksums;
  auto sweep = [&](const std::vector<tuner::TuningTask>& sweep_tasks) {
    double checksum = 0.0;
    for (const tuner::TuningTask& task : sweep_tasks) {
      for (double cycles : tuner::ExhaustiveSearch(task).measured) {
        if (cycles < 1e30) checksum += cycles;
      }
    }
    sweep_checksums.push_back(checksum);
  };
  PairedSeconds measure = TimePaired(
      [] {}, [&] { sweep(direct_tasks); }, [&] { sweep(tasks); });

  // Model-guided pruning: the effective-throughput experiment. Baseline:
  // the single-phase AST-interpreter sweep (what a measurement cost
  // before the two-phase split), timed on this machine so the gain is
  // host-independent. Against it: a cold sweep where the analytical
  // model ranks the whole space and only the top-K survivors (plus the
  // exploration tail) pay a compile+replay — every other config is
  // answered from the keep-set in O(1). "Effective" rate counts the
  // *whole* space as covered, which the coverage gate in
  // bench/calibration.cc (and the best-found check below) justifies.
  obs::Counter& model_counter =
      obs::Registry::Global().GetCounter("tuner.pruned_model");

  std::vector<tuner::TuningTask> interp_tasks = tasks;
  for (tuner::TuningTask& task : interp_tasks) {
    schedule::GemmOp op = task.op;
    target::GpuSpec task_spec = task.spec;
    task.measure = [op, task_spec](const schedule::ScheduleConfig& config) {
      std::string why;
      if (!schedule::ValidateConfig(op, config, &why)) {
        return std::numeric_limits<double>::infinity();
      }
      sim::CompiledKernel compiled = sim::CompileKernel(op, config, task_spec);
      sim::KernelTiming timing = sim::InterpretKernel(compiled, task_spec);
      return timing.feasible ? timing.cycles
                             : std::numeric_limits<double>::infinity();
    };
  }
  auto best_of = [](const tuner::TuningTask& task) {
    double best = std::numeric_limits<double>::infinity();
    for (double cycles : tuner::ExhaustiveSearch(task).measured) {
      best = std::min(best, cycles);
    }
    return best;
  };
  // Every pass's best per operator, interpreter and pruned alike.
  std::vector<std::vector<double>> bests;
  auto interp_sweep = [&] {
    bests.emplace_back();
    for (const tuner::TuningTask& task : interp_tasks) {
      bests.back().push_back(best_of(task));
    }
  };

  // Each pruned pass starts from an empty cache. Task construction is
  // inside the timed region: it is where the model scores and ranks the
  // space, which is real work the pruned sweep pays.
  tuner::SpaceOptions pruned_options;
  pruned_options.model_topk = tuner::SpaceOptions::kDefaultModelTopK;
  uint64_t model_before = model_counter.Value();
  auto pruned_sweep = [&] {
    bests.emplace_back();
    for (const schedule::GemmOp& op : workloads::BenchmarkOps()) {
      bests.back().push_back(
          best_of(tuner::MakeSimulatorTask(op, spec, pruned_options)));
    }
  };
  PairedSeconds pruning =
      TimePaired(sim::ResetSimCache, interp_sweep, pruned_sweep);
  uint64_t configs_pruned_model =
      (model_counter.Value() - model_before) / kTimedPasses;
  // The pruning guarantee: per operator, the best config every pruned
  // sweep finds must be *bit-identical* to the unpruned exhaustive best
  // (the replay core is deterministic, so equality is exact, not
  // approximate).
  bool best_found_unchanged =
      std::all_of(bests.begin(), bests.end(),
                  [&](const std::vector<double>& b) { return b == bests[0]; });
  double interp_rate =
      pruning.a > 0.0 ? static_cast<double>(space_total) / pruning.a : 0.0;
  double effective_rate =
      pruning.b > 0.0 ? static_cast<double>(space_total) / pruning.b : 0.0;

  bool deterministic =
      serial_checksum == parallel_checksum &&
      serial_checksum == cached_checksum &&
      std::all_of(sweep_checksums.begin(), sweep_checksums.end(),
                  [&](double c) { return c == sweep_checksums.front(); });
  double speedup =
      parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
  uint64_t rerun_hits = cached_stats.hits - parallel_stats.hits;
  uint64_t rerun_misses = cached_stats.misses - parallel_stats.misses;

  std::printf(
      "{\n"
      "  \"bench\": \"tuning_throughput\",\n"
      "  \"threads\": %d,\n"
      "  \"hardware_cores\": %u,\n"
      "  \"operators\": %zu,\n"
      "  \"space_configs\": %zu,\n"
      "  \"serial_seconds\": %.4f,\n"
      "  \"parallel_seconds\": %.4f,\n"
      "  \"speedup\": %.2f,\n"
      "  \"cached_rerun_seconds\": %.4f,\n"
      "  \"measure_nocache_seconds\": %.4f,\n"
      "  \"measure_cached_seconds\": %.4f,\n"
      "  \"cache_speedup\": %.2f,\n"
      "  \"deterministic_across_threads\": %s,\n"
      "  \"model_pruning\": {\n"
      "    \"model_topk\": %d,\n"
      "    \"interpreter_seconds\": %.4f,\n"
      "    \"interpreter_configs_per_sec\": %.1f,\n"
      "    \"pruned_sweep_seconds\": %.4f,\n"
      "    \"effective_configs_per_sec\": %.1f,\n"
      "    \"effective_configs_per_sec_gain\": %.2f,\n"
      "    \"configs_pruned_model\": %llu,\n"
      "    \"best_found_unchanged\": %s\n"
      "  },\n"
      "  \"cache\": {\n"
      "    \"cold_hits\": %llu,\n"
      "    \"cold_misses\": %llu,\n"
      "    \"cold_hit_rate\": %.4f,\n"
      "    \"warm_rerun_hits\": %llu,\n"
      "    \"warm_rerun_misses\": %llu,\n"
      "    \"entries\": %llu\n"
      "  }\n"
      "}\n",
      threads, hw == 0 ? 1 : hw, tasks.size(), space_total, serial_seconds,
      parallel_seconds, speedup, cached_seconds, measure.a, measure.b,
      measure.ratio, deterministic ? "true" : "false",
      tuner::SpaceOptions::kDefaultModelTopK, pruning.a, interp_rate,
      pruning.b, effective_rate, pruning.ratio,
      static_cast<unsigned long long>(configs_pruned_model),
      best_found_unchanged ? "true" : "false",
      static_cast<unsigned long long>(parallel_stats.hits),
      static_cast<unsigned long long>(parallel_stats.misses),
      parallel_stats.HitRate(),
      static_cast<unsigned long long>(rerun_hits),
      static_cast<unsigned long long>(rerun_misses),
      static_cast<unsigned long long>(cached_stats.entries));
  (void)serial_stats;
  // Gate on correctness and the pruning guarantee; wall-clock gains are
  // reported (and gated in CI against the committed baseline) but a slow
  // machine alone never fails the bench binary.
  return deterministic && best_found_unchanged ? 0 : 1;
}
