// Tests of the observability layer (src/obs/): span tracing, the metrics
// registry, the Chrome/Perfetto trace exporter (golden-output and
// schema checks), stall attribution (breakdowns must sum to the batch
// makespan for every warp), and the zero-overhead guard — with tracing
// disabled a warm ReplaySimProgram performs no heap allocation and the
// KernelTiming is bit-identical whether tracing is on or off.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/chrome_trace.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/stall.h"
#include "obs/trace.h"
#include "schedule/tensor.h"
#include "serving/protocol.h"
#include "sim/desim.h"
#include "sim/launch.h"
#include "sim/sim_cache.h"
#include "sim/timeline.h"
#include "target/gpu_spec.h"
#include "tuner/space.h"
#include "tuner/strategy.h"
#include "workloads/ops.h"

// Sanitizer builds replace the allocator; counting allocations there is
// both unreliable and interferes with the interceptors, so the guard
// falls back to the ReplayArena capacity assertion.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ALCOP_OBS_NO_ALLOC_COUNTING 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define ALCOP_OBS_NO_ALLOC_COUNTING 1
#endif
#endif

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

#if !defined(ALCOP_OBS_NO_ALLOC_COUNTING)
// Counting allocator for the whole test binary: every operator new bumps
// one relaxed counter. Deltas around a code region measure its heap
// traffic exactly (this binary is single-threaded during that region).
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* ptr = std::malloc(size ? size : 1);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* ptr = std::malloc(size ? size : 1);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
// Out of line: inlined into this file's tests, `free` on a pointer from
// `operator new` reads to GCC as a mismatched pair (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* ptr) noexcept { std::free(ptr); }
[[gnu::noinline]] void operator delete[](void* ptr) noexcept { std::free(ptr); }
[[gnu::noinline]] void operator delete(void* ptr, std::size_t) noexcept {
  std::free(ptr);
}
[[gnu::noinline]] void operator delete[](void* ptr, std::size_t) noexcept {
  std::free(ptr);
}
#endif  // !ALCOP_OBS_NO_ALLOC_COUNTING

namespace alcop {
namespace {

using schedule::MakeMatmul;

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// `name`'s value in the flattened snapshot of the global registry.
double FlatMetric(const std::string& name, bool* found) {
  for (const auto& [flat_name, value] :
       obs::FlattenSnapshot(obs::Registry::Global().Snapshot())) {
    if (flat_name == name) {
      *found = true;
      return value;
    }
  }
  *found = false;
  return 0.0;
}

// RAII: every test that enables tracing restores the disabled default so
// test order never leaks spans into another test's collection.
struct ScopedTracing {
  ScopedTracing() {
    obs::ClearTrace();
    obs::SetTraceEnabled(true);
  }
  ~ScopedTracing() {
    obs::SetTraceEnabled(false);
    obs::ClearTrace();
  }
};

// One small feasible kernel for exporter / stall / overhead tests.
sim::CompiledKernel SmallKernel(const target::GpuSpec& spec,
                                schedule::GemmOp* op_out = nullptr,
                                schedule::ScheduleConfig* config_out = nullptr) {
  schedule::GemmOp op = MakeMatmul("mm", 1024, 64, 2048);
  tuner::SpaceOptions options;
  options.tb_m = {64};
  options.tb_n = {32, 64};
  options.tb_k = {32};
  options.warp_splits = {{2, 1}, {2, 2}};
  for (const schedule::ScheduleConfig& config :
       tuner::EnumerateSpace(op, options)) {
    sim::CompiledKernel compiled = sim::CompileKernel(op, config, spec);
    if (sim::InterpretKernel(compiled, spec).feasible) {
      if (op_out != nullptr) *op_out = op;
      if (config_out != nullptr) *config_out = config;
      return compiled;
    }
  }
  ADD_FAILURE() << "no feasible config in the small test space";
  return sim::CompiledKernel();
}

// ---------------------------------------------------------------- tracing

TEST(ObsTraceTest, DisabledRecordsNothing) {
  obs::SetTraceEnabled(false);
  obs::ClearTrace();
  { ALCOP_TRACE_SCOPE("invisible", "test"); }
  obs::RecordSpan("also-invisible", "test", 0, 1);
  EXPECT_TRUE(obs::CollectTraceSpans().empty());
}

TEST(ObsTraceTest, RecordsNestedScopesWithDepth) {
  ScopedTracing tracing;
  {
    ALCOP_TRACE_SCOPE("outer", "test");
    { ALCOP_TRACE_SCOPE("inner", "test"); }
  }
  std::vector<obs::TraceSpan> spans = obs::CollectTraceSpans();
  ASSERT_EQ(spans.size(), 2u);
  // Sorted by start time: outer starts first but ends last.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
  EXPECT_EQ(spans[0].thread_id, spans[1].thread_id);
}

TEST(ObsTraceTest, CollectsSpansFromExitedThreads) {
  ScopedTracing tracing;
  std::thread worker([] { ALCOP_TRACE_SCOPE("worker-span", "test"); });
  worker.join();
  std::vector<obs::TraceSpan> spans = obs::CollectTraceSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "worker-span");
}

// An exited thread's ring passes to the next thread that starts tracing,
// so ten threads in a row, each recording more than a ring holds, keep
// at most two rings' worth of spans (one ring each would keep ten), and
// every overwritten span counts as dropped.
TEST(ObsTraceTest, ExitedThreadsHandTheirRingsOn) {
  ScopedTracing tracing;
  constexpr size_t kThreads = 10;
  constexpr int64_t kSpans = 20000;
  constexpr size_t kRingCapacity = 1 << 14;
  for (size_t t = 0; t < kThreads; ++t) {
    std::thread worker([] {
      for (int64_t i = 0; i < kSpans; ++i) {
        obs::RecordSpan("burst", "test", i, i + 1);
      }
    });
    worker.join();
  }
  std::vector<obs::TraceSpan> spans = obs::CollectTraceSpans();
  EXPECT_LE(spans.size(), 2 * kRingCapacity);
  EXPECT_EQ(spans.size() + obs::DroppedSpans(),
            kThreads * static_cast<size_t>(kSpans));
}

TEST(ObsTraceTest, CompilerPhasesAreInstrumented) {
  ScopedTracing tracing;
  target::GpuSpec spec = target::AmpereSpec();
  sim::CompiledKernel compiled = SmallKernel(spec);
  sim::SimProgram program = sim::BuildSimProgram(compiled, spec);
  sim::ReplayArena arena;
  sim::ReplaySimProgram(program, &arena);

  std::vector<std::string> names;
  for (const obs::TraceSpan& span : obs::CollectTraceSpans()) {
    names.push_back(span.name);
  }
  auto has = [&](const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(has("detect"));
  EXPECT_TRUE(has("transform"));
  EXPECT_TRUE(has("lower"));
  EXPECT_TRUE(has("sim-compile"));
  EXPECT_TRUE(has("replay"));
}

// ---------------------------------------------------------------- metrics

TEST(ObsMetricsTest, CounterGaugeHistogramRoundTrip) {
  obs::Counter& counter =
      obs::Registry::Global().GetCounter("test.obs.counter");
  counter.Reset();
  counter.Increment();
  counter.Add(4);
  EXPECT_EQ(counter.Value(), 5u);

  obs::Gauge& gauge = obs::Registry::Global().GetGauge("test.obs.gauge");
  gauge.Set(2.5);
  EXPECT_EQ(gauge.Value(), 2.5);

  obs::Histogram& histogram =
      obs::Registry::Global().GetHistogram("test.obs.histogram");
  histogram.Reset();
  histogram.Observe(1.0);
  histogram.Observe(3.0);
  histogram.Observe(100.0);
  EXPECT_EQ(histogram.Count(), 3u);
  EXPECT_EQ(histogram.Sum(), 104.0);
  EXPECT_EQ(histogram.Max(), 100.0);
}

TEST(ObsMetricsTest, SameNameReturnsSameInstrument) {
  obs::Counter& a = obs::Registry::Global().GetCounter("test.obs.same");
  obs::Counter& b = obs::Registry::Global().GetCounter("test.obs.same");
  EXPECT_EQ(&a, &b);
}

TEST(ObsMetricsTest, CallbackGaugeAppearsInDumps) {
  obs::Registry::Global().RegisterCallback("test.obs.callback",
                                           [] { return 42.0; });
  bool found = false;
  EXPECT_EQ(FlatMetric("test.obs.callback", &found), 42.0);
  EXPECT_TRUE(found);
  EXPECT_NE(obs::RenderPrometheus().find("\nalcop_test_obs_callback 42\n"),
            std::string::npos);
  std::string json =
      obs::FlattenSnapshotJson(obs::Registry::Global().Snapshot());
  EXPECT_NE(json.find("\"test.obs.callback\":42"), std::string::npos)
      << json;
  // The sim cache registers its own callbacks on first use; after any
  // cache traffic they must surface here too (absorbed stats).
  sim::CachedCompileAndSimulate(MakeMatmul("mm", 256, 128, 256),
                                schedule::ScheduleConfig(),
                                target::AmpereSpec());
  std::string with_cache =
      obs::FlattenSnapshotJson(obs::Registry::Global().Snapshot());
  EXPECT_NE(with_cache.find("\"sim.cache.timing.misses\""),
            std::string::npos);
}

TEST(ObsMetricsTest, JsonDumpIsDeterministic) {
  std::string a = obs::FlattenSnapshotJson(obs::Registry::Global().Snapshot());
  std::string b = obs::FlattenSnapshotJson(obs::Registry::Global().Snapshot());
  EXPECT_EQ(a, b);
  EXPECT_EQ(obs::RenderPrometheus(), obs::RenderPrometheus());
}

// Regression table for HistogramQuantile edge cases: the estimate must
// never leave the populated bucket range, q=0/q=1 must report the
// min/max bucket edges (max-clamped), and degenerate inputs answer 0.
TEST(ObsMetricsTest, QuantileEdgeCaseTable) {
  // Empty histogram: every q answers 0.
  obs::HistogramData empty;
  EXPECT_EQ(obs::HistogramQuantile(empty, 0.0), 0.0);
  EXPECT_EQ(obs::HistogramQuantile(empty, 0.5), 0.0);
  EXPECT_EQ(obs::HistogramQuantile(empty, 1.0), 0.0);

  // Racing snapshot: count ticked before any bucket did. Answer 0
  // rather than inventing a value from unpopulated buckets.
  obs::HistogramData racing;
  racing.count = 5;
  EXPECT_EQ(obs::HistogramQuantile(racing, 0.5), 0.0);

  // Single populated bucket [4, 8) with observed max 6: q=0 reports the
  // lower edge, q=1 the observed max (not the bucket's upper edge), and
  // everything between stays inside [4, 6].
  obs::Histogram single;
  single.Observe(4.0);
  single.Observe(5.0);
  single.Observe(6.0);
  obs::HistogramData data = single.Data();
  EXPECT_EQ(obs::HistogramQuantile(data, 0.0), 4.0);
  EXPECT_EQ(obs::HistogramQuantile(data, 1.0), 6.0);
  for (double q : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    double estimate = obs::HistogramQuantile(data, q);
    EXPECT_GE(estimate, 4.0) << "q=" << q;
    EXPECT_LE(estimate, 6.0) << "q=" << q;
  }

  // q outside [0,1] clamps; NaN answers 0.
  EXPECT_EQ(obs::HistogramQuantile(data, -3.0),
            obs::HistogramQuantile(data, 0.0));
  EXPECT_EQ(obs::HistogramQuantile(data, 7.0),
            obs::HistogramQuantile(data, 1.0));
  EXPECT_EQ(obs::HistogramQuantile(data, std::nan("")), 0.0);

  // Bucket 0 only ([0, 1)): the topmost upper edge clamps to the
  // observed max, so q=1 cannot exceed it.
  obs::Histogram tiny;
  tiny.Observe(0.25);
  tiny.Observe(0.5);
  obs::HistogramData tiny_data = tiny.Data();
  EXPECT_EQ(obs::HistogramQuantile(tiny_data, 0.0), 0.0);
  EXPECT_EQ(obs::HistogramQuantile(tiny_data, 1.0), 0.5);
  EXPECT_LE(obs::HistogramQuantile(tiny_data, 0.5), 0.5);

  // Two populated buckets with a gap: q=1 clamps to the max even when
  // the last bucket's nominal range extends far beyond it.
  obs::Histogram gap;
  gap.Observe(0.5);
  gap.Observe(100.0);  // bucket [64, 128), max 100
  obs::HistogramData gap_data = gap.Data();
  EXPECT_EQ(obs::HistogramQuantile(gap_data, 0.0), 0.0);
  EXPECT_EQ(obs::HistogramQuantile(gap_data, 1.0), 100.0);
}

// --------------------------------------------------------- trace exporter

TEST(ObsChromeTraceTest, GoldenOutput) {
  obs::ChromeTraceWriter writer;
  writer.AddProcessName(1, "alcop host");
  writer.AddThreadName(1, 0, "main");
  writer.AddCompleteEvent("parse", "compiler", 1, 0, 0.25, 12.5);
  writer.AddCompleteEvent("he said \"hi\"", "cat", 2, 3, 1.0, 2.0);
  const char* expected =
      "{\"displayTimeUnit\": \"ms\",\n"
      "\"traceEvents\": [\n"
      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"alcop host\"}},\n"
      "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"main\"}},\n"
      "{\"name\": \"parse\", \"cat\": \"compiler\", \"ph\": \"X\", "
      "\"ts\": 0.250, \"dur\": 12.500, \"pid\": 1, \"tid\": 0},\n"
      "{\"name\": \"he said \\\"hi\\\"\", \"cat\": \"cat\", \"ph\": \"X\", "
      "\"ts\": 1.000, \"dur\": 2.000, \"pid\": 2, \"tid\": 3}\n"
      "]}\n";
  EXPECT_EQ(writer.ToJson(), expected);
}

TEST(ObsChromeTraceTest, SimTimelineEventSetMatchesTimeline) {
  target::GpuSpec spec = target::AmpereSpec();
  sim::CompiledKernel compiled = SmallKernel(spec);
  sim::BatchTimeline batch;
  sim::InterpretKernel(compiled, spec, nullptr, &batch);
  ASSERT_FALSE(batch.timeline.spans.empty());

  obs::ChromeTraceWriter writer;
  obs::AppendSimTimeline(&writer, batch.timeline, batch.num_warps);
  int max_tb = 0;
  for (const sim::TimelineSpan& span : batch.timeline.spans) {
    max_tb = std::max(max_tb, span.tb);
  }
  // process_name + one thread_name per (tb, warp) and mem-pipe row, then
  // exactly one complete event per timeline span.
  size_t metadata = 1 + static_cast<size_t>(max_tb + 1) *
                            static_cast<size_t>(batch.num_warps + 1);
  EXPECT_EQ(writer.num_events(), metadata + batch.timeline.spans.size());

  // Deterministic: exporting the same timeline twice is byte-identical.
  obs::ChromeTraceWriter again;
  obs::AppendSimTimeline(&again, batch.timeline, batch.num_warps);
  EXPECT_EQ(writer.ToJson(), again.ToJson());

  // Schema sanity: every complete event carries the required keys, and
  // both kinds of rows (warp and mem pipe) are named.
  std::string json = writer.ToJson();
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": "), std::string::npos);
  EXPECT_NE(json.find("\"dur\": "), std::string::npos);
  EXPECT_NE(json.find("tb0 warp0"), std::string::npos);
  EXPECT_NE(json.find("tb0 mem pipe"), std::string::npos);
}

TEST(ObsChromeTraceTest, HostAndGpuSpansShareOneFile) {
  ScopedTracing tracing;
  target::GpuSpec spec = target::AmpereSpec();
  sim::CompiledKernel compiled = SmallKernel(spec);
  sim::BatchTimeline batch;
  sim::InterpretKernel(compiled, spec, nullptr, &batch);

  obs::ChromeTraceWriter writer;
  obs::AppendHostSpans(&writer, obs::CollectTraceSpans());
  obs::AppendSimTimeline(&writer, batch.timeline, batch.num_warps);
  std::string json = writer.ToJson();
  // pid 1 = host compiler phases, pid 2 = the simulated GPU.
  EXPECT_NE(json.find("\"alcop host\""), std::string::npos);
  EXPECT_NE(json.find("\"simulated GPU (1 us = 1 cycle)\""),
            std::string::npos);
  EXPECT_NE(json.find("\"lower\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 2"), std::string::npos);
}

// ------------------------------------------------------ stall attribution

TEST(ObsStallTest, BreakdownSumsToMakespanPerWarp) {
  target::GpuSpec spec = target::AmpereSpec();
  sim::CompiledKernel compiled = SmallKernel(spec);
  sim::BatchTimeline batch;
  sim::InterpretKernel(compiled, spec, nullptr, &batch);
  obs::KernelProfile profile = obs::ProfileBatch(batch);

  EXPECT_GT(profile.makespan, 0.0);
  EXPECT_EQ(profile.warps.size(),
            static_cast<size_t>(profile.threadblocks * profile.num_warps));
  for (const obs::WarpProfile& warp : profile.warps) {
    // idle is the residual, so Total() == makespan holds exactly; the
    // real invariant under test is that the categorized spans of one
    // warp never overlap (idle would go negative).
    EXPECT_NEAR(warp.cycles.Total(), profile.makespan, 1e-6)
        << "tb" << warp.tb << " warp" << warp.warp;
    EXPECT_GE(warp.cycles.idle, -1e-6)
        << "overlapping spans on tb" << warp.tb << " warp" << warp.warp;
  }
  EXPECT_NEAR(profile.total.Total(),
              profile.makespan * static_cast<double>(profile.warps.size()),
              1e-6);

  EXPECT_GE(profile.tensor_pipe_utilization, 0.0);
  EXPECT_LE(profile.tensor_pipe_utilization, 1.0 + 1e-9);
  EXPECT_GE(profile.memory_pipe_utilization, 0.0);
  EXPECT_LE(profile.memory_pipe_utilization, 1.0 + 1e-9);
  EXPECT_GE(profile.fill_fraction, 0.0);
  EXPECT_GE(profile.drain_fraction, 0.0);
  EXPECT_FALSE(profile.verdict.empty());
}

TEST(ObsStallTest, ModelVerdictCrossCheck) {
  target::GpuSpec spec = target::AmpereSpec();
  schedule::GemmOp op;
  schedule::ScheduleConfig config;
  sim::CompiledKernel compiled = SmallKernel(spec, &op, &config);
  sim::BatchTimeline batch;
  sim::InterpretKernel(compiled, spec, nullptr, &batch);
  obs::KernelProfile profile = obs::ProfileBatch(batch);
  obs::AttachModelVerdict(&profile, op, config, spec);
  EXPECT_TRUE(profile.model_limiter == "compute" ||
              profile.model_limiter == "smem" ||
              profile.model_limiter == "dram");
  EXPECT_GT(profile.model_cycles, 0.0);

  std::string table = obs::RenderProfile(profile);
  EXPECT_NE(table.find("verdict: "), std::string::npos);
  EXPECT_NE(table.find("bottleneck model"), std::string::npos);
  std::string json = obs::ProfileToJson(profile);
  EXPECT_NE(json.find("\"makespan_cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"warps\""), std::string::npos);
}

TEST(ObsStallTest, SyntheticTimelineAttributesExactly) {
  sim::BatchTimeline batch;
  batch.threadblocks = 1;
  batch.num_warps = 2;
  batch.timeline.makespan = 100.0;
  auto add = [&](int warp, sim::SpanKind kind, double start, double end) {
    sim::TimelineSpan span;
    span.tb = 0;
    span.warp = warp;
    span.kind = kind;
    span.start = start;
    span.end = end;
    batch.timeline.spans.push_back(span);
  };
  add(0, sim::SpanKind::kCompute, 10.0, 60.0);
  add(0, sim::SpanKind::kSyncStall, 60.0, 90.0);
  add(1, sim::SpanKind::kBarrier, 0.0, 40.0);
  add(-1, sim::SpanKind::kTransfer, 0.0, 30.0);  // mem pipe, not warp time

  obs::KernelProfile profile = obs::ProfileBatch(batch);
  ASSERT_EQ(profile.warps.size(), 2u);
  EXPECT_EQ(profile.warps[0].cycles.compute, 50.0);
  EXPECT_EQ(profile.warps[0].cycles.sync_stall, 30.0);
  EXPECT_EQ(profile.warps[0].cycles.idle, 20.0);
  EXPECT_EQ(profile.warps[1].cycles.barrier, 40.0);
  EXPECT_EQ(profile.warps[1].cycles.idle, 60.0);
  EXPECT_EQ(profile.tensor_pipe_utilization, 0.5);
  EXPECT_EQ(profile.memory_pipe_utilization, 0.3);
  EXPECT_EQ(profile.fill_fraction, 0.1);
  EXPECT_EQ(profile.drain_fraction, 0.4);
  // stall (30 + 40) > compute (50) and the memory pipe is less busy than
  // the tensor pipe, so the stalls are latency, not bandwidth:
  EXPECT_EQ(profile.verdict, "sync-stall-bound");
}

// ------------------------------------------------------ overhead guard

TEST(ObsOverheadTest, TracingDoesNotChangeSimulatedTiming) {
  target::GpuSpec spec = target::AmpereSpec();
  sim::CompiledKernel compiled = SmallKernel(spec);
  sim::SimProgram program = sim::BuildSimProgram(compiled, spec);
  sim::ReplayArena arena;

  obs::SetTraceEnabled(false);
  sim::KernelTiming off = sim::ReplaySimProgram(program, &arena);
  {
    ScopedTracing tracing;
    sim::KernelTiming on = sim::ReplaySimProgram(program, &arena);
    EXPECT_TRUE(BitEqual(off.cycles, on.cycles));
    EXPECT_TRUE(BitEqual(off.microseconds, on.microseconds));
    EXPECT_TRUE(BitEqual(off.tflops, on.tflops));
    EXPECT_EQ(off.batches, on.batches);
    EXPECT_EQ(off.threadblocks_per_sm, on.threadblocks_per_sm);
  }
}

TEST(ObsOverheadTest, WarmReplayIsZeroAllocationWithTracingDisabled) {
  target::GpuSpec spec = target::AmpereSpec();
  sim::CompiledKernel compiled = SmallKernel(spec);
  sim::SimProgram program = sim::BuildSimProgram(compiled, spec);
  sim::ReplayArena arena;

  obs::SetTraceEnabled(false);
  sim::ReplaySimProgram(program, &arena);  // warm-up sizes the arena
  size_t capacity = arena.CapacityBytes();

  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  sim::KernelTiming timing = sim::ReplaySimProgram(program, &arena);
  uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(timing.feasible);
  EXPECT_EQ(arena.CapacityBytes(), capacity) << "warm replay grew the arena";
#if !defined(ALCOP_OBS_NO_ALLOC_COUNTING)
  EXPECT_EQ(after - before, 0u)
      << "warm replay allocated with tracing disabled";
#else
  (void)before;
  (void)after;
#endif
}

TEST(ObsOverheadTest, WarmReplayWithRaggedLastWaveIsZeroAllocation) {
  // A remainder wave runs fewer threadblocks than the full waves before
  // it. The arena's park lists and barriers must survive that smaller
  // wave, or every warm replay re-grows them for the next full one.
  target::GpuSpec spec = target::AmpereSpec();
  const schedule::GemmOp& op = workloads::BenchmarkOps().front();
  tuner::TuningTask task = tuner::MakeSimulatorTask(op, spec);
  sim::SimProgram program;
  bool ragged = false;
  for (size_t c = 0; c < task.space.size() && !ragged; ++c) {
    program = sim::CompileSimProgram(op, task.space[c], spec);
    const int64_t per_wave =
        static_cast<int64_t>(program.threadblocks_per_sm) * program.num_sms;
    ragged = program.feasible && program.total_threadblocks > per_wave &&
             program.total_threadblocks % per_wave != 0;
  }
  ASSERT_TRUE(ragged) << "no config of " << op.name << " has a ragged wave";

  obs::SetTraceEnabled(false);
  sim::ReplayArena arena;
  sim::KernelTiming first = sim::ReplaySimProgram(program, &arena);
  sim::ReplaySimProgram(program, &arena);
  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  sim::KernelTiming third = sim::ReplaySimProgram(program, &arena);
  uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(BitEqual(first.cycles, third.cycles));
#if !defined(ALCOP_OBS_NO_ALLOC_COUNTING)
  EXPECT_EQ(after - before, 0u)
      << "warm replay of " << program.total_threadblocks
      << " threadblocks in waves of "
      << program.threadblocks_per_sm * program.num_sms << " allocated";
#else
  (void)before;
  (void)after;
#endif
}

TEST(ObsOverheadTest, RequestPathInstrumentationIsZeroAllocation) {
  // alcopd's per-request bookkeeping — a gauge bump at dispatch, a span
  // and histogram observations at completion — runs on the lane threads
  // between a warm cache probe and the response write. It must allocate
  // nothing even with tracing enabled, or the hot-path p99 gate in
  // bench/serving_load.cc is at the allocator's mercy.
  obs::Registry& registry = obs::Registry::Global();
  obs::Histogram& latency = registry.GetHistogram(
      "obstest.request.latency.us|lane=fast", "test-only lane histogram");
  obs::Gauge& inflight = registry.GetGauge("obstest.inflight");
  ScopedTracing tracing;
  // The histogram is process-global: count this run's observations only,
  // so the test also passes when the suite repeats in one process.
  const uint64_t count_before = latency.Data().count;

  // Warm-up: the first span on a thread sizes its ring, the first
  // observations settle any lazy instrument state.
  int64_t t0 = obs::NowNanos();
  obs::RecordSpan("obstest.request", "serving", t0 - 100, t0);
  inflight.Add(1.0);
  latency.Observe(1.0);
  inflight.Add(-1.0);

  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 256; ++i) {
    inflight.Add(1.0);
    int64_t now = obs::NowNanos();
    obs::RecordSpan("obstest.queue_wait", "serving", now - 50, now - 10);
    obs::RecordSpan("obstest.request", "serving", now - 50, now);
    latency.Observe(static_cast<double>(i));
    inflight.Add(-1.0);
  }
  uint64_t after = g_allocations.load(std::memory_order_relaxed);
#if !defined(ALCOP_OBS_NO_ALLOC_COUNTING)
  EXPECT_EQ(after - before, 0u)
      << "request-path instrumentation allocated with tracing enabled";
#else
  (void)before;
  (void)after;
#endif
  EXPECT_EQ(latency.Data().count - count_before, 257u);
  EXPECT_EQ(inflight.Value(), 0.0);
}

// ParseJson reads each number in place. Copying the rest of the document
// per number, as it once did, made decoding alcopd's untrusted input
// quadratic (a 224 KB array of numbers took 155 ms).
TEST(ProtocolJsonTest, NumberArrayParsesWithoutPerNumberAllocations) {
  constexpr size_t kNumbers = 10000;
  std::string doc = "[0.5e-1";
  for (size_t i = 1; i < kNumbers; ++i) {
    doc.append(",").append(std::to_string(i)).append(".5e-1");
  }
  doc.append("]");
  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  std::optional<serving::JsonValue> parsed = serving::ParseJson(doc);
  uint64_t after = g_allocations.load(std::memory_order_relaxed);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->array.size(), kNumbers);
  EXPECT_EQ(parsed->array.back().NumberOr(0), 9999.5e-1);
#if !defined(ALCOP_OBS_NO_ALLOC_COUNTING)
  EXPECT_LT(after - before, 100u);
#else
  (void)before;
  (void)after;
#endif
}

// ------------------------------------------------------- callback gauges

TEST(ObsGaugeTest, TraceRingDropsNothingOnAProfileSweep) {
  ScopedTracing tracing;
  target::GpuSpec spec = target::AmpereSpec();
  sim::CompiledKernel compiled = SmallKernel(spec);
  sim::SimProgram program = sim::BuildSimProgram(compiled, spec);
  sim::ReplayArena arena;
  for (int i = 0; i < 32; ++i) sim::ReplaySimProgram(program, &arena);
  EXPECT_EQ(obs::DroppedSpans(), 0u)
      << "profile-scale tracing must fit the span rings";
  // Enabling tracing registered the overflow gauge; it must read 0.
  bool found = false;
  EXPECT_EQ(FlatMetric("obs.trace.dropped", &found), 0.0);
  EXPECT_TRUE(found);
}

TEST(ObsGaugeTest, ArenaBytesGaugeTracksTheThreadLocalArena) {
  target::GpuSpec spec = target::AmpereSpec();
  sim::CompiledKernel compiled = SmallKernel(spec);
  // SimulateKernel goes through the registered thread-local arena.
  sim::KernelTiming timing = sim::SimulateKernel(compiled, spec);
  ASSERT_TRUE(timing.feasible);
  bool found = false;
  double bytes = FlatMetric("sim.arena.bytes", &found);
  ASSERT_TRUE(found);
  EXPECT_GT(bytes, 0.0) << "resident arena bytes must be published";
}

}  // namespace
}  // namespace alcop
