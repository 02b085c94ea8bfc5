// compile-cold: every (operator, schedule) pair of the twelve Fig. 10
// spaces compiled and simulated once through sim::CachedCompileAndSimulate,
// in a seeded order, each round starting from an empty sim cache. An
// untimed warm-up draw, disjoint from the measured pairs, runs first.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common.h"
#include "obs/trace.h"
#include "sim/sim_cache.h"
#include "tuner/space.h"
#include "workloads/ops.h"

namespace perfbench {
namespace {

using alcop::schedule::GemmOp;
using alcop::schedule::ScheduleConfig;
namespace obs = alcop::obs;
namespace sim = alcop::sim;

struct Pair {
  size_t op = 0;
  ScheduleConfig config;
};

struct Outcome {
  size_t pair = 0;
  bool feasible = false;
  double cycles = 0.0;
};

std::vector<Pair> Fig10Pairs(const std::vector<GemmOp>& ops) {
  std::vector<Pair> pairs;
  for (size_t i = 0; i < ops.size(); ++i) {
    for (const ScheduleConfig& config : alcop::tuner::EnumerateSpace(ops[i])) {
      pairs.push_back({i, config});
    }
  }
  return pairs;
}

// Compiles one pair, returning its wall time in ms; records the outcome.
double CompileOne(const std::vector<GemmOp>& ops, const std::vector<Pair>& pairs,
                  size_t index, const alcop::target::GpuSpec& spec,
                  std::vector<Outcome>* outcomes, Report* report) {
  const Pair& pair = pairs[index];
  int64_t start = obs::NowNanos();
  try {
    sim::KernelTiming timing = sim::CachedCompileAndSimulate(ops[pair.op], pair.config, spec);
    double ms = static_cast<double>(obs::NowNanos() - start) / 1e6;
    outcomes->push_back({index, timing.feasible, timing.cycles});
    return ms;
  } catch (const std::exception& e) {
    report->Fail(ops[pair.op].name + " " + pair.config.ToString() + ": " + e.what());
    return static_cast<double>(obs::NowNanos() - start) / 1e6;
  }
}

// Geometric mean over the operators of the best feasible cycles among
// `outcomes`: with every pair of the spaces compiled, the best schedule of
// each Fig. 10 space.
double BestCyclesGeomean(const std::vector<GemmOp>& ops, const std::vector<Pair>& pairs,
                         const std::vector<Outcome>& outcomes) {
  std::vector<double> best(ops.size(), HUGE_VAL);
  for (const Outcome& outcome : outcomes) {
    if (!outcome.feasible) continue;
    double& b = best[pairs[outcome.pair].op];
    b = std::min(b, outcome.cycles);
  }
  return Geomean(best);
}

// Interpreter oracle on a seeded sample of the measured compiles.
void CheckSample(const std::vector<GemmOp>& ops, const std::vector<Pair>& pairs,
                 const std::vector<Outcome>& outcomes, size_t sample_size,
                 const alcop::target::GpuSpec& spec, const Options& options,
                 Report* report) {
  std::vector<size_t> order = SeededOrder(outcomes.size(), MixSeed(options.seed, 3));
  for (size_t i = 0; i < order.size() && i < sample_size; ++i) {
    const Outcome& outcome = outcomes[order[i]];
    const Pair& pair = pairs[outcome.pair];
    std::string why;
    try {
      why = CheckAgainstInterpreter(ops[pair.op], pair.config, spec, outcome.feasible,
                                    outcome.cycles, options);
    } catch (const std::exception& e) {
      why = ops[pair.op].name + " " + pair.config.ToString() + ": " + e.what();
    }
    if (!why.empty()) report->Fail(why);
  }
}

void TracedRun(const std::vector<GemmOp>& ops, const std::vector<Pair>& pairs,
               const std::vector<size_t>& order, const alcop::target::GpuSpec& spec,
               const Options& options, Report* report) {
  constexpr size_t kChunk = 1000;  // compiles between ring drains
  const size_t count = std::min(order.size(), options.quick ? size_t{300} : size_t{8000});

  sim::ResetSimCache();
  std::vector<Outcome> outcomes;
  int64_t reference_start = obs::NowNanos();
  for (size_t i = 0; i < count; ++i) CompileOne(ops, pairs, order[i], spec, &outcomes, report);
  const double reference_ms = static_cast<double>(obs::NowNanos() - reference_start) / 1e6;

  sim::ResetSimCache();
  outcomes.clear();
  std::vector<obs::TraceSpan> spans;  // kept for the Chrome trace
  LayerMetrics layers;
  double traced_ms = 0.0;
  double compile_ms = 0.0;
  size_t kept = 0;  // compiles whose spans go into the Chrome trace
  obs::ClearTrace();
  obs::SetTraceEnabled(true);
  for (size_t begin = 0; begin < count; begin += kChunk) {
    int64_t chunk_start = obs::NowNanos();
    for (size_t i = begin; i < std::min(count, begin + kChunk); ++i) {
      ALCOP_TRACE_SCOPE("bench.compile", "bench");
      CompileOne(ops, pairs, order[i], spec, &outcomes, report);
    }
    traced_ms += static_cast<double>(obs::NowNanos() - chunk_start) / 1e6;
    std::vector<obs::TraceSpan> chunk;
    DrainTrace(&chunk, report);
    std::vector<SpanNode> nodes = BuildSpanTree(chunk);
    // The call outside its stage spans: validation, key building,
    // lookups, interning and inserts.
    layers.stages.Add(nodes, "bench.compile");
    for (const SpanNode& node : nodes) {
      if (std::string(node.name) == "bench.compile") compile_ms += node.dur_us / 1e3;
    }
    if (spans.size() < 50000) {
      spans.insert(spans.end(), chunk.begin(), chunk.end());
      kept = std::min(count, begin + kChunk);
    }
  }
  obs::SetTraceEnabled(false);
  report->attempted = 2 * count;

  const sim::SimCacheStats stats = sim::GetSimCacheStats();
  double ops_sum = 0.0;
  size_t feasible = 0;
  for (const Outcome& outcome : outcomes) {
    if (!outcome.feasible) continue;
    const Pair& pair = pairs[outcome.pair];
    ops_sum += static_cast<double>(
        sim::CachedSimProgram(ops[pair.op], pair.config, spec)->program.TotalOps());
    ++feasible;
  }
  CheckSample(ops, pairs, outcomes, options.quick ? 8 : 64, spec, options, report);

  layers.program_ops = Ratio(ops_sum, static_cast<double>(feasible));
  layers.sim_feasible_ratio =
      Ratio(static_cast<double>(feasible), static_cast<double>(outcomes.size()));
  layers.programs_per_skeleton = Ratio(static_cast<double>(stats.program_entries),
                                       static_cast<double>(stats.program_skeletons));
  layers.resident_mb = static_cast<double>(stats.resident_bytes) / 1e6;
  layers.evictions = static_cast<double>(stats.evictions);
  layers.hit_rate = Ratio(static_cast<double>(stats.hits),
                          static_cast<double>(stats.hits + stats.misses));
  layers.unattributed_fraction = 1.0 - compile_ms / traced_ms;
  layers.trace_overhead_fraction = traced_ms / reference_ms - 1.0;
  report->AddLayers(layers);

  const std::string path = options.out_dir + "/trace-compile-cold-seed" +
                           std::to_string(options.seed) + ".json";
  if (!WriteChromeTrace(path, spans)) report->Fail("cannot write " + path);
  std::printf("chrome trace: %s (%zu spans of the first %zu compiles)\n", path.c_str(),
              spans.size(), kept);
}

}  // namespace

void RunCompileCold(const Options& options, Report* report) {
  const alcop::target::GpuSpec spec = alcop::target::AmpereSpec();
  const std::vector<GemmOp>& ops = alcop::workloads::BenchmarkOps();
  const size_t warmup_size = options.quick ? 50 : 1000;

  // Set-up: enumerate the spaces, draw the warm-up pairs and compile them
  // into an empty cache. Repeated, and the median reported.
  std::vector<double> setup;
  std::vector<Pair> pairs;
  std::vector<size_t> measured;
  std::vector<Outcome> outcomes;
  for (int rep = 0; rep < (options.quick ? 1 : 5); ++rep) {
    obs::Stopwatch watch;
    sim::ResetSimCache();
    pairs = Fig10Pairs(ops);
    std::vector<size_t> order = SeededOrder(pairs.size(), MixSeed(options.seed, 1));
    outcomes.clear();
    for (size_t i = 0; i < warmup_size; ++i) {
      CompileOne(ops, pairs, order[i], spec, &outcomes, report);
    }
    measured.assign(order.begin() + static_cast<ptrdiff_t>(warmup_size), order.end());
    setup.push_back(watch.Seconds());
  }

  if (options.trace) {
    TracedRun(ops, pairs, measured, spec, options, report);
    return;
  }

  // The warm-up draw and the first round together cover every pair.
  std::vector<Outcome> warmup_outcomes = std::move(outcomes);

  // Rounds over the measured pairs, each in its own seeded order from an
  // empty cache, until the time budget is spent.
  std::vector<double> latency_ms;
  latency_ms.reserve(1 << 18);
  outcomes.clear();
  outcomes.reserve(1 << 18);
  double busy_s = 0.0;
  for (uint64_t round = 0; busy_s < options.seconds; ++round) {
    sim::ResetSimCache();
    std::vector<size_t> order = SeededOrder(measured.size(), MixSeed(options.seed, 100 + round));
    int64_t round_start = obs::NowNanos();
    for (size_t i = 0; i < order.size(); ++i) {
      latency_ms.push_back(CompileOne(ops, pairs, measured[order[i]], spec, &outcomes, report));
      if ((i & 63) == 63 &&
          busy_s + static_cast<double>(obs::NowNanos() - round_start) / 1e9 >= options.seconds) {
        break;
      }
    }
    busy_s += static_cast<double>(obs::NowNanos() - round_start) / 1e9;
  }
  report->attempted = latency_ms.size();
  CheckSample(ops, pairs, outcomes, options.quick ? 8 : 64, spec, options, report);
  outcomes.insert(outcomes.end(), warmup_outcomes.begin(), warmup_outcomes.end());

  std::printf("compile-cold: %zu compiles in %.3f s\n", latency_ms.size(), busy_s);
  report->Add("throughput_per_s", static_cast<double>(latency_ms.size()) / busy_s, "1/s");
  report->Add("latency_p50_ms", Percentile(latency_ms, 0.5), "ms");
  report->Add("latency_p99_ms", P99(latency_ms, "latency_ms"), "ms");
  report->Add("best_cycles_geomean", BestCyclesGeomean(ops, pairs, outcomes), "cycles");
  report->AddSetup(setup);
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
