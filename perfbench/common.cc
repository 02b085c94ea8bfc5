#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

#include "obs/chrome_trace.h"
#include "sim/launch.h"
#include "tuner/space.h"
#include "tuner/strategy.h"
#include "tuner/transfer.h"
#include "verify/verifier.h"

namespace perfbench {

using alcop::obs::TraceSpan;

void Report::Add(const std::string& name, double value, const std::string& unit) {
  rows_.push_back({name, value, unit, ""});
}

void Report::AddLayer(const std::string& name, double value,
                      const std::string& unit, const std::string& moves) {
  rows_.push_back({name, value, unit, moves});
}

void Report::AddSetup(const std::vector<double>& seconds) {
  std::printf("set-up repetitions (s):");
  for (double s : seconds) std::printf(" %.4f", s);
  std::printf("\n");
  Add("setup_s", Median(seconds), "s");
}

void Report::AddLayers(const LayerMetrics& m) {
  // A layer off the workload's path reads 0 and has nothing to move.
  const auto on = [](bool on_path, const char* target) {
    return on_path ? target : "- (layer not on this path)";
  };
  const char* tuner = on(m.tuner_on_path, "throughput_per_s");
  const char* tuner_small = on(m.tuner_on_path, "throughput_per_s (small)");
  AddLayer("tuner.refit_ms", m.refit_ms, "ms", tuner);
  AddLayer("tuner.refits", m.refits, "count", tuner);
  AddLayer("tuner.propose_ms", m.propose_ms, "ms", tuner);
  AddLayer("tuner.other_ms", m.tuner_other_ms, "ms", tuner);
  AddLayer("tuner.measure_ms", m.measure_ms, "ms", tuner_small);
  AddLayer("tuner.trials", m.trials, "count", tuner_small);
  AddLayer("tuner.feasible_ratio", m.tuner_feasible_ratio, "ratio", tuner_small);
  AddLayer("tuner.pruned_static", m.pruned_static, "count", tuner_small);

  const StageSamples& st = m.stages;
  const std::string p50 = "latency_p50_ms";
  const std::string both = "latency_p50_ms, latency_p99_ms";
  auto p50_total = [&](const std::string& name, const std::vector<double>& us,
                       const std::string& target) {
    AddLayer(name + ".p50", Percentile(us, 0.5), "us", target);
    AddLayer(name + ".total", Sum(us), "us", target);
  };
  auto p50_p99_total = [&](const std::string& name, const std::vector<double>& us) {
    AddLayer(name + ".p50", Percentile(us, 0.5), "us", both);
    AddLayer(name + ".p99", P99(us, name.c_str()), "us", both);
    AddLayer(name + ".total", Sum(us), "us", both);
  };
  p50_total("pipeline.detect_us", st.detect, p50);
  p50_total("schedule.lower_us", st.lower, p50);
  p50_total("schedule.create_us", st.create, p50);
  p50_total("pipeline.transform_us", st.transform, p50);
  p50_p99_total("sim.build_us", st.build);
  p50_p99_total("sim.replay_us", st.replay);
  AddLayer("sim.program_ops", m.program_ops, "count", both);
  AddLayer("sim.feasible_ratio", m.sim_feasible_ratio, "ratio", both);
  p50_total("sim.cache_us", st.cache, p50);
  AddLayer("sim.cache.programs_per_skeleton", m.programs_per_skeleton, "ratio",
           "latency_p50_ms, peak_rss_mb");
  AddLayer("sim.cache.resident_mb", m.resident_mb, "MB", "peak_rss_mb");
  AddLayer("sim.cache.evictions", m.evictions, "count", "latency_p99_ms");
  AddLayer("sim.cache.hit_rate", m.hit_rate, "ratio", both);

  const char* serving_p50 = on(m.serving_on_path, "latency_p50_ms");
  const char* serving_p99 = on(m.serving_on_path, "latency_p99_ms");
  auto lane = [&](const std::string& name, const std::vector<double>& us, const char* target) {
    AddLayer(name + ".p50", Percentile(us, 0.5), "us", target);
    AddLayer(name + ".p99", P99(us, name.c_str()), "us", target);
  };
  AddLayer("serving.hot_on_slow", m.hot_on_slow, "count", serving_p99);
  lane("serving.fast.queue_us", m.fast_queue_us, serving_p50);
  lane("serving.fast.service_us", m.fast_service_us, serving_p50);
  lane("serving.slow.queue_us", m.slow_queue_us, serving_p99);
  lane("serving.slow.service_us", m.slow_service_us, serving_p99);
  lane("serving.transport_us", m.transport_us, serving_p50);
  AddLayer("persist.load_ms", m.load_ms, "ms", on(m.serving_on_path, "setup_s"));
  AddLayer("persist.bytes", m.store_bytes, "bytes", on(m.serving_on_path, "setup_s"));

  AddLayer("unattributed_fraction", m.unattributed_fraction, "ratio", "");
  AddLayer("trace_overhead_fraction", m.trace_overhead_fraction, "ratio", "");
}

void Report::Fail(const std::string& why, uint64_t count) {
  failed += count;
  if (logged_ < 10) {
    std::fprintf(stderr, "perfbench: failed operation: %s\n", why.c_str());
  }
  ++logged_;
}

void Report::PrintLayerTable(const std::string& workload) const {
  std::printf("per-layer metrics, %s (traced run)\n", workload.c_str());
  std::printf("  %-34s %16s  %-6s  %s\n", "metric", "value", "unit",
              "end-to-end target");
  for (const Row& row : rows_) {
    std::printf("  %-34s %16.6g  %-6s  %s\n", row.name.c_str(), row.value,
                row.unit.c_str(), row.moves.empty() ? "-" : row.moves.c_str());
  }
}

bool Report::PrintResult() const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char number[64];
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (!std::isfinite(rows_[i].value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   rows_[i].name.c_str());
      return false;
    }
    std::snprintf(number, sizeof(number), "%.17g", rows_[i].value);
    out << (i == 0 ? "" : ", ") << "\"" << rows_[i].name
        << "\": {\"value\": " << number << ", \"unit\": \"" << rows_[i].unit
        << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  return true;
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double P99(const std::vector<double>& values, const char* what) {
  if (!values.empty() && values.size() < 1000) {
    std::fprintf(stderr,
                 "perfbench: warning: %s p99 from %zu samples (needs 1000 "
                 "for 10 beyond it)\n",
                 what, values.size());
  }
  return Percentile(values, 0.99);
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double Ratio(double part, double whole) { return whole == 0.0 ? 0.0 : part / whole; }

double Geomean(const std::vector<double>& values) {
  double log_sum = 0.0;
  size_t n = 0;
  for (double v : values) {
    if (!std::isfinite(v) || v <= 0.0) continue;
    log_sum += std::log(v);
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

std::vector<size_t> SeededOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  alcop::Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    size_t j = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 finalizer over the pair.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

CpuTicks ReadCpuTicks(int cpu) {
  CpuTicks ticks;
  std::ifstream in("/proc/stat");
  std::string line;
  const std::string own = "cpu" + std::to_string(cpu);
  while (std::getline(in, line)) {
    if (line.rfind("cpu", 0) != 0) break;
    std::istringstream fields(line);
    std::string label;
    fields >> label;
    // user nice system idle iowait irq softirq steal (guest time is
    // already included in user).
    uint64_t value = 0;
    uint64_t total = 0;
    uint64_t steal = 0;
    for (int i = 0; i < 8 && (fields >> value); ++i) {
      total += value;
      if (i == 7) steal = value;
    }
    if (label == "cpu") {
      ticks.all_steal = steal;
      ticks.all_total = total;
    } else if (label == own) {
      ticks.cpu_steal = steal;
      ticks.cpu_total = total;
    }
  }
  return ticks;
}

std::vector<SpanNode> BuildSpanTree(const std::vector<TraceSpan>& spans) {
  // Spans arrive ordered by (start, thread, depth); a span's parent is the
  // innermost earlier span of the same thread, one level up, that is
  // still open when it starts.
  std::vector<SpanNode> nodes(spans.size());
  std::vector<std::vector<int>> open;  // per dense thread id
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& span = spans[i];
    SpanNode& node = nodes[i];
    node.name = span.name;
    node.dur_us = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    node.self_us = node.dur_us;
    if (span.thread_id >= open.size()) open.resize(span.thread_id + 1);
    std::vector<int>& stack = open[span.thread_id];
    while (!stack.empty()) {
      const TraceSpan& top = spans[static_cast<size_t>(stack.back())];
      if (top.depth < span.depth && top.end_ns >= span.end_ns) break;
      stack.pop_back();
    }
    if (!stack.empty() && spans[static_cast<size_t>(stack.back())].depth + 1 == span.depth) {
      node.parent = stack.back();
      nodes[static_cast<size_t>(node.parent)].self_us -= node.dur_us;
    }
    stack.push_back(static_cast<int>(i));
  }
  return nodes;
}

void StageSamples::Add(const std::vector<SpanNode>& nodes, const char* wrapper) {
  for (const SpanNode& node : nodes) {
    const std::string name = node.name;
    if (name == "detect") detect.push_back(node.dur_us);
    if (name == "lower") lower.push_back(node.dur_us);
    if (name == "transform") transform.push_back(node.dur_us);
    if (name == "compile-kernel") create.push_back(node.self_us);
    if (name == "sim-compile") build.push_back(node.dur_us);
    if (name == "replay") replay.push_back(node.dur_us);
    if (wrapper != nullptr && name == wrapper) cache.push_back(node.self_us);
  }
}

void DrainTrace(std::vector<TraceSpan>* sink, Report* report) {
  std::vector<TraceSpan> spans = alcop::obs::CollectTraceSpans();
  uint64_t dropped = alcop::obs::DroppedSpans();
  if (dropped != 0) {
    report->Fail("trace ring dropped " + std::to_string(dropped) + " spans");
  }
  alcop::obs::ClearTrace();
  sink->insert(sink->end(), spans.begin(), spans.end());
}

bool WriteChromeTrace(const std::string& path, const std::vector<TraceSpan>& spans) {
  alcop::obs::ChromeTraceWriter writer;
  writer.AddProcessName(1, "alcop host");
  alcop::obs::AppendHostSpans(&writer, spans);
  std::ofstream out(path);
  out << writer.ToJson();
  return static_cast<bool>(out);
}

TunedOp TuneLikeAlcopd(const alcop::schedule::GemmOp& op, const alcop::target::GpuSpec& spec,
                       uint64_t seed, alcop::tuner::TuningStore* store, MeasureLog* log) {
  namespace tuner = alcop::tuner;
  constexpr size_t kTrials = 32;  // alcopd's ServerOptions::default_trials
  alcop::obs::Stopwatch watch;
  ALCOP_TRACE_SCOPE("bench.tune-op", "bench");
  tuner::TuningTask task = [&] {
    ALCOP_TRACE_SCOPE("bench.make-task", "bench");
    return tuner::MakeSimulatorTask(op, spec);
  }();
  if (log != nullptr) {
    auto measure = task.measure;
    task.measure = [measure, log, op](const alcop::schedule::ScheduleConfig& config) {
      ALCOP_TRACE_SCOPE("bench.measure", "bench");
      const int64_t start = alcop::obs::NowNanos();
      const double cycles = measure(config);
      log->latency_ms.push_back(static_cast<double>(alcop::obs::NowNanos() - start) / 1e6);
      ++log->calls;
      if (std::isfinite(cycles)) {
        ++log->finite;
        if (log->keep_feasible) log->feasible.emplace_back(op, config);
      }
      return cycles;
    };
  }
  tuner::XgbOptions xgb;
  xgb.pretrain_with_analytical = true;
  xgb.seed = seed;
  {
    ALCOP_TRACE_SCOPE("bench.warm-start", "bench");
    xgb.warm_seeds = tuner::FindWarmStart(task, *store).seeds;
  }
  tuner::TuningResult result = [&] {
    ALCOP_TRACE_SCOPE("bench.xgb", "bench");
    return tuner::XgbTuner(task, kTrials, xgb);
  }();
  {
    ALCOP_TRACE_SCOPE("bench.store", "bench");
    tuner::StoreTuning(task, result, *store);
  }
  TunedOp tuned;
  tuned.cycles = HUGE_VAL;
  const size_t best = result.BestIndex(task);
  if (best < task.space.size()) {
    tuned.config = task.space[best];
    tuned.cycles = result.BestInFirstK(result.trials.size());
  }
  tuned.trials = result.trials.size();
  tuned.seconds = watch.Seconds();
  return tuned;
}

double OracleCycles(double cycles, const Options& options) {
  return options.perturb_oracle ? std::nextafter(cycles, HUGE_VAL) : cycles;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

std::string CheckAgainstInterpreter(const alcop::schedule::GemmOp& op,
                                    const alcop::schedule::ScheduleConfig& config,
                                    const alcop::target::GpuSpec& spec,
                                    bool feasible, double cycles,
                                    const Options& options) {
  const std::string what = op.name + " " + config.ToString();
  std::string why;
  if (!alcop::schedule::ValidateConfig(op, config, &why)) {
    return feasible ? what + ": invalid config reported feasible" : "";
  }
  alcop::sim::CompiledKernel compiled = alcop::sim::CompileKernel(op, config, spec);
  alcop::sim::KernelTiming reference = alcop::sim::InterpretKernel(compiled, spec);
  if (reference.feasible != feasible) return what + ": feasibility differs from the interpreter";
  if (feasible && !SameBits(OracleCycles(reference.cycles, options), cycles)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), ": %.17g cycles, interpreter %.17g", cycles,
                  OracleCycles(reference.cycles, options));
    return what + buf;
  }
  alcop::verify::VerifyResult verdict = alcop::verify::VerifyProgram(compiled.transformed.stmt);
  if (verdict.HasErrors()) return what + ": verifier: " + verdict.Render();
  return "";
}

}  // namespace perfbench
