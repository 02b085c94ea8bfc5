// Simulator-throughput bench: the compile-once/replay-many split in
// numbers. Over the Fig. 10 operator sweep it measures, per schedule
// config,
//   - the AST-interpreter path (validate + kernel compile + per-warp
//     trace interpretation — the pre-split single-phase pipeline), and
//   - the bytecode path: phase 1 (trace compile to a flat micro-op
//     program) timed separately from phase 2 (warm replay of that
//     program through the event-pool core),
// and emits one machine-readable JSON object (consumed by
// `scripts/bench.sh sim` into BENCH_sim.json).
//
// Besides throughput it asserts the two correctness gates the CI
// perf-smoke job relies on:
//   - determinism: every replayed KernelTiming is bit-identical to the
//     interpreter's (cycles, microseconds, tflops, batch geometry), and
//     the cycle checksums agree exactly;
//   - zero warm-replay allocation: after one warm-up replay of a
//     program, the timed replay must not call operator new (counted by
//     the allocator below) — any heap allocation on the hot path fails
//     the bench.
// Wall-clock numbers are reported but never gated on.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "sim/desim.h"
#include "sim/launch.h"
#include "sim/sim_cache.h"
#include "tuner/strategy.h"
#include "workloads/ops.h"

using namespace alcop;  // NOLINT(build/namespaces) - bench driver

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// Counting allocator for the whole bench binary: the delta around the
// timed replay is its exact heap traffic (nothing else runs meanwhile).
// Unlike an arena-capacity check it also sees lists that are freed and
// rebuilt within one replay.
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
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameTiming(const sim::KernelTiming& a, const sim::KernelTiming& b) {
  return a.feasible == b.feasible && a.reason == b.reason &&
         BitEqual(a.cycles, b.cycles) &&
         BitEqual(a.microseconds, b.microseconds) &&
         BitEqual(a.tflops, b.tflops) &&
         BitEqual(a.batch_cycles, b.batch_cycles) && a.batches == b.batches &&
         a.threadblocks_per_sm == b.threadblocks_per_sm;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  // Quick mode (the CI perf-smoke job) strides the schedule space; the
  // full sweep is every config of every Fig. 10 operator.
  const int stride = quick ? 16 : 1;

  target::GpuSpec spec = target::AmpereSpec();
  std::vector<tuner::TuningTask> tasks;
  for (const schedule::GemmOp& op : workloads::BenchmarkOps()) {
    tasks.push_back(tuner::MakeSimulatorTask(op, spec));
  }

  sim::ReplayArena arena;
  int configs = 0, feasible = 0, mismatches = 0;
  int warm_replay_allocations = 0;
  double t_interp = 0.0, t_compile = 0.0, t_replay = 0.0;
  double interp_checksum = 0.0, replay_checksum = 0.0;

  for (const tuner::TuningTask& task : tasks) {
    for (size_t c = 0; c < task.space.size(); c += stride) {
      const schedule::ScheduleConfig& config = task.space[c];
      ++configs;
      std::string why;
      if (!schedule::ValidateConfig(task.op, config, &why)) continue;

      // AST-interpreter path: exactly the work the single-phase pipeline
      // did per measurement before the split. Timed on the obs trace
      // clock (one clock for benches and profiler spans).
      obs::Stopwatch watch;
      sim::CompiledKernel compiled =
          sim::CompileKernel(task.op, config, spec);
      sim::KernelTiming interp = sim::InterpretKernel(compiled, spec);
      t_interp += watch.Seconds();

      // Phase 1: pay the IR walk once.
      watch.Restart();
      sim::SimProgram program = sim::CompileSimProgram(task.op, config, spec);
      t_compile += watch.Seconds();

      // Phase 2: warm replay. One untimed replay sizes the arena for this
      // program shape; the timed replay must not allocate.
      sim::KernelTiming warmup = sim::ReplaySimProgram(program, &arena);
      const uint64_t before = g_allocations.load(std::memory_order_relaxed);
      watch.Restart();
      sim::KernelTiming replay = sim::ReplaySimProgram(program, &arena);
      t_replay += watch.Seconds();
      // An infeasible program replays nothing; its result only copies the
      // reason string.
      if (program.feasible) {
        warm_replay_allocations += static_cast<int>(
            g_allocations.load(std::memory_order_relaxed) - before);
      }
      if (!SameTiming(warmup, replay)) ++mismatches;

      if (!SameTiming(interp, replay)) {
        if (++mismatches <= 3) {
          std::fprintf(stderr, "MISMATCH %s: %.17g vs %.17g cycles\n",
                       config.ToString().c_str(), interp.cycles,
                       replay.cycles);
        }
      }
      if (!interp.feasible) continue;
      ++feasible;
      interp_checksum += interp.cycles;
      replay_checksum += replay.cycles;
    }
  }

  // The sim cache over the same sweep: a cold pass fills it; a second
  // pass must be pure hits.
  sim::ResetSimCache();
  obs::Stopwatch cache_watch;
  for (const tuner::TuningTask& task : tasks) {
    for (size_t c = 0; c < task.space.size(); c += stride) {
      sim::CachedCompileAndSimulate(task.op, task.space[c], spec);
    }
  }
  double cache_cold_seconds = cache_watch.Seconds();
  cache_watch.Restart();
  for (const tuner::TuningTask& task : tasks) {
    for (size_t c = 0; c < task.space.size(); c += stride) {
      sim::CachedCompileAndSimulate(task.op, task.space[c], spec);
    }
  }
  double cache_warm_seconds = cache_watch.Seconds();
  sim::SimCacheStats stats = sim::GetSimCacheStats();

  // What one cached config costs: the cache's exact resident bytes
  // (key, reason string, entry and node) per timing entry.
  double bytes_per_config =
      stats.entries > 0 ? static_cast<double>(stats.resident_bytes) /
                              static_cast<double>(stats.entries)
                        : 0.0;

  bool deterministic =
      mismatches == 0 && BitEqual(interp_checksum, replay_checksum);
  double interp_rate = t_interp > 0.0 ? feasible / t_interp : 0.0;
  double replay_rate = t_replay > 0.0 ? feasible / t_replay : 0.0;
  double speedup = t_replay > 0.0 ? t_interp / t_replay : 0.0;
  unsigned hw = std::thread::hardware_concurrency();

  std::printf(
      "{\n"
      "  \"bench\": \"sim_throughput\",\n"
      "  \"quick\": %s,\n"
      "  \"hardware_cores\": %u,\n"
      "  \"operators\": %zu,\n"
      "  \"configs\": %d,\n"
      "  \"feasible\": %d,\n"
      "  \"interpreter_seconds\": %.4f,\n"
      "  \"interpreter_configs_per_sec\": %.1f,\n"
      "  \"trace_compile_seconds\": %.4f,\n"
      "  \"replay_seconds\": %.4f,\n"
      "  \"replay_configs_per_sec\": %.1f,\n"
      "  \"speedup\": %.2f,\n"
      "  \"deterministic\": %s,\n"
      "  \"timing_mismatches\": %d,\n"
      "  \"checksum_cycles\": %.17g,\n"
      "  \"warm_replay_heap_allocations\": %d,\n"
      "  \"arena_capacity_bytes\": %zu,\n"
      "  \"cache\": {\n"
      "    \"cold_pass_seconds\": %.4f,\n"
      "    \"warm_pass_seconds\": %.4f,\n"
      "    \"timing_hits\": %llu,\n"
      "    \"timing_misses\": %llu,\n"
      "    \"timing_entries\": %llu,\n"
      "    \"resident_bytes\": %llu,\n"
      "    \"bytes_per_config\": %.1f\n"
      "  }\n"
      "}\n",
      quick ? "true" : "false", hw == 0 ? 1 : hw, tasks.size(), configs,
      feasible, t_interp, interp_rate, t_compile, t_replay, replay_rate,
      speedup, deterministic ? "true" : "false", mismatches, interp_checksum,
      warm_replay_allocations, arena.CapacityBytes(), cache_cold_seconds,
      cache_warm_seconds, static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.misses),
      static_cast<unsigned long long>(stats.entries),
      static_cast<unsigned long long>(stats.resident_bytes), bytes_per_config);

  // Gate only on correctness plus the structural claims downstream code
  // relies on: bit-identical results, no hot-path heap growth, and a
  // replay path that actually ran. Never on wall time.
  bool ok = deterministic && warm_replay_allocations == 0 && feasible > 0 &&
            replay_rate > 0.0;
  return ok ? 0 : 1;
}
