// tune-fig10: the twelve Fig. 10 operators tuned in order, the way alcopd
// tunes a shape it has not seen (TuneLikeAlcopd: analytical pre-training,
// warm start from the operators tuned earlier in the pass, the daemon's
// default 32 trials). Every pass starts from an empty sim cache and an
// empty store. Pass p tunes with its own seed drawn from the workload seed:
// the tuner's trials depend on its seed, so one run's percentiles cover
// several trial sets instead of hinging on the few heaviest configs of one.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/sim_cache.h"
#include "tuner/records.h"
#include "workloads/ops.h"

namespace perfbench {
namespace {

using alcop::schedule::GemmOp;
namespace obs = alcop::obs;
namespace sim = alcop::sim;
namespace tuner = alcop::tuner;

struct Pass {
  std::vector<TunedOp> ops;
  double seconds = 0.0;  // sum of the per-operator tune times
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
};

uint64_t PassSeed(const Options& options, size_t pass) {
  return MixSeed(options.seed, 20 + pass);
}

Pass RunPass(const std::vector<GemmOp>& ops, const alcop::target::GpuSpec& spec,
             uint64_t seed, MeasureLog* log, std::vector<obs::TraceSpan>* spans,
             Report* report) {
  sim::ResetSimCache();
  const sim::SimCacheStats before = sim::GetSimCacheStats();
  tuner::TuningStore store;
  Pass pass;
  for (const GemmOp& op : ops) {
    pass.ops.push_back(TuneLikeAlcopd(op, spec, seed, &store, log));
    pass.seconds += pass.ops.back().seconds;
    // Traced pass: empty the rings after every operator (outside the
    // operator's own timing) so none can wrap.
    if (spans != nullptr) DrainTrace(spans, report);
  }
  const sim::SimCacheStats after = sim::GetSimCacheStats();
  pass.cache_hits = after.hits - before.hits;
  pass.cache_lookups = pass.cache_hits + (after.misses - before.misses);
  return pass;
}

double GeomeanCycles(const Pass& pass) {
  std::vector<double> cycles;
  for (const TunedOp& op : pass.ops) cycles.push_back(op.cycles);
  return Geomean(cycles);
}

// Re-measures every pass's best schedule of each operator with the
// interpreter; a mismatch fails that operation.
void CheckPasses(const std::vector<GemmOp>& ops, const std::vector<Pass>& passes,
                 const alcop::target::GpuSpec& spec, const Options& options,
                 Report* report) {
  std::map<std::string, std::string> verdicts;  // by operator, config and cycles
  for (const Pass& pass : passes) {
    for (size_t i = 0; i < ops.size(); ++i) {
      const TunedOp& tuned = pass.ops[i];
      if (!std::isfinite(tuned.cycles)) {
        report->Fail(ops[i].name + ": no feasible schedule found");
        continue;
      }
      char cycles[32];
      std::snprintf(cycles, sizeof(cycles), "%a", tuned.cycles);
      const std::string key = ops[i].name + " " + tuned.config.ToString() + " " + cycles;
      auto it = verdicts.find(key);
      if (it == verdicts.end()) {
        std::string why;
        try {
          why = CheckAgainstInterpreter(ops[i], tuned.config, spec, true, tuned.cycles, options);
        } catch (const std::exception& e) {
          why = ops[i].name + ": " + e.what();
        }
        it = verdicts.emplace(key, why).first;
      }
      if (!it->second.empty()) report->Fail(it->second);
    }
  }
}

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).Value();
}

void TracedRun(const std::vector<GemmOp>& ops, const alcop::target::GpuSpec& spec,
               const Options& options, Report* report) {
  // Enough traced passes for 1,000 compiles, so the stage p99s have ten
  // samples beyond them.
  const int passes = options.quick ? 1 : 4;
  std::vector<Pass> checked;
  double reference_s = 0.0;
  for (int p = 0; p < passes; ++p) {
    checked.push_back(RunPass(ops, spec, PassSeed(options, p), nullptr, nullptr, report));
    reference_s += checked.back().seconds;
  }

  const uint64_t refits0 = CounterValue("tuner.refits");
  const uint64_t pruned0 = CounterValue("tuner.pruned_static");
  MeasureLog log;
  log.keep_feasible = true;
  std::vector<obs::TraceSpan> spans;
  double traced_s = 0.0;
  uint64_t hits = 0;
  uint64_t lookups = 0;
  size_t trials = 0;
  obs::ClearTrace();
  obs::SetTraceEnabled(true);
  for (int p = 0; p < passes; ++p) {
    checked.push_back(RunPass(ops, spec, PassSeed(options, p), &log, &spans, report));
    traced_s += checked.back().seconds;
    hits += checked.back().cache_hits;
    lookups += checked.back().cache_lookups;
    for (const TunedOp& op : checked.back().ops) trials += op.trials;
  }
  obs::SetTraceEnabled(false);
  const sim::SimCacheStats stats = sim::GetSimCacheStats();  // the last pass's cache
  const uint64_t pruned = CounterValue("tuner.pruned_static") - pruned0;
  report->attempted = checked.size() * ops.size();
  CheckPasses(ops, checked, spec, options, report);
  // The traced passes repeat the reference passes' seeds: tracing must not
  // change what the tuner finds.
  for (int p = 0; p < passes; ++p) {
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!SameBits(checked[passes + p].ops[i].cycles, checked[p].ops[i].cycles)) {
        report->Fail(ops[i].name + ": traced pass " + std::to_string(p) +
                     " found a different best than its untraced twin");
      }
    }
  }

  std::map<std::string, double> self_ms;  // by span name
  std::map<std::string, double> total_ms;
  std::vector<SpanNode> nodes = BuildSpanTree(spans);
  for (const SpanNode& node : nodes) {
    self_ms[node.name] += node.self_us / 1e3;
    total_ms[node.name] += node.dur_us / 1e3;
  }
  LayerMetrics layers;
  layers.tuner_on_path = true;
  layers.refit_ms = self_ms["refit"];
  layers.refits = static_cast<double>(CounterValue("tuner.refits") - refits0);
  layers.propose_ms = self_ms["xgb-round"];
  layers.measure_ms = total_ms["bench.measure"];
  // Space enumeration, transfer, and XgbTuner's time outside its own
  // spans (feature extraction and the analytical pre-train predictions).
  layers.tuner_other_ms = total_ms["bench.make-task"] + total_ms["bench.warm-start"] +
                          total_ms["bench.store"] + self_ms["bench.xgb"];
  layers.trials = static_cast<double>(trials);
  layers.tuner_feasible_ratio =
      Ratio(static_cast<double>(log.finite), static_cast<double>(log.calls));
  layers.pruned_static = static_cast<double>(pruned);

  layers.stages.Add(nodes, "bench.measure");
  double ops_sum = 0.0;
  for (const auto& [op, config] : log.feasible) {
    ops_sum += static_cast<double>(sim::CachedSimProgram(op, config, spec)->program.TotalOps());
  }
  layers.program_ops = Ratio(ops_sum, static_cast<double>(log.feasible.size()));
  // The prefilter answers pruned configs without compiling them.
  layers.sim_feasible_ratio =
      Ratio(static_cast<double>(log.finite), static_cast<double>(log.calls - pruned));
  layers.programs_per_skeleton = Ratio(static_cast<double>(stats.program_entries),
                                       static_cast<double>(stats.program_skeletons));
  layers.resident_mb = static_cast<double>(stats.resident_bytes) / 1e6;
  layers.hit_rate = Ratio(static_cast<double>(hits), static_cast<double>(lookups));

  const double traced_ms = traced_s * 1e3;
  layers.unattributed_fraction =
      1.0 - (layers.refit_ms + layers.propose_ms + layers.measure_ms + layers.tuner_other_ms) /
                traced_ms;
  layers.trace_overhead_fraction = traced_s / reference_s - 1.0;
  report->AddLayers(layers);

  const std::string path = options.out_dir + "/trace-tune-fig10-seed" +
                           std::to_string(options.seed) + ".json";
  if (!WriteChromeTrace(path, spans)) report->Fail("cannot write " + path);
  std::printf("chrome trace: %s (%zu spans)\n", path.c_str(), spans.size());
}

}  // namespace

void RunTuneFig10(const Options& options, Report* report) {
  const alcop::target::GpuSpec spec = alcop::target::AmpereSpec();
  std::vector<GemmOp> ops = alcop::workloads::BenchmarkOps();
  if (options.quick) ops = {ops[3], ops[7]};  // two small spaces

  if (options.trace) {
    TracedRun(ops, spec, options, report);
    return;
  }

  // Set-up: everything before the first timed pass, including one warm-up
  // tune of a shape outside the Fig. 10 set from an empty cache. Repeated,
  // and the median reported.
  const GemmOp warmup = alcop::schedule::MakeMatmul("MM_setup_1024", 1024, 1024, 1024);
  std::vector<double> setup;
  for (int rep = 0; rep < (options.quick ? 1 : 5); ++rep) {
    obs::Stopwatch watch;
    sim::ResetSimCache();
    tuner::TuningStore store;
    TuneLikeAlcopd(warmup, spec, options.seed, &store, nullptr);
    setup.push_back(watch.Seconds());
  }

  // Whole passes while the next one is expected to fit in the budget.
  // Every measurement the tuner makes is timed: the compile latency the
  // tuner waits on.
  MeasureLog log;
  std::vector<Pass> passes;
  double elapsed = 0.0;
  while (passes.empty() || elapsed + passes.back().seconds <= options.seconds) {
    passes.push_back(RunPass(ops, spec, PassSeed(options, passes.size()), &log, nullptr, report));
    elapsed += passes.back().seconds;
  }
  report->attempted = passes.size() * ops.size();
  CheckPasses(ops, passes, spec, options, report);

  std::vector<double> per_second;
  for (const Pass& pass : passes) {
    per_second.push_back(static_cast<double>(ops.size()) / pass.seconds);
  }
  std::printf("tune-fig10: %zu passes of %zu operators, %zu measurements, pass seconds:",
              passes.size(), ops.size(), log.latency_ms.size());
  for (const Pass& pass : passes) std::printf(" %.3f", pass.seconds);
  std::printf("\n");
  report->Add("throughput_per_s", Median(per_second), "1/s");
  report->Add("latency_p50_ms", Percentile(log.latency_ms, 0.5), "ms");
  report->Add("latency_p99_ms", P99(log.latency_ms, "measurement latency"), "ms");
  report->Add("best_cycles_geomean", GeomeanCycles(passes.front()), "cycles");
  report->AddSetup(setup);
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
