// Serving bench: tuning-as-a-service end to end in numbers. Four
// sections, one JSON object (consumed by scripts/bench_serving.sh into
// BENCH_serving.json):
//
//   1. cold search vs warm restart — every Fig. 10 operator is tuned
//      cold, stored, persisted to disk; then the process state is wiped,
//      the cache reloaded, and each operator answered the way alcopd's
//      fast lane does (stored best replayed through the sim cache). The
//      restart must be >= 5x faster than the cold search and return
//      bit-identical best cycles.
//   2. warm-start transfer — with the store reloaded, a fresh search per
//      operator is seeded via FindWarmStart; seeds are measured first and
//      folded into the result, so the warm search must reach the cold
//      search's best-found on every operator.
//   3. LRU residency — a re-sweep under half the unbounded footprint must
//      stay within budget and actually evict.
//   4. daemon latency — an in-process alcopd on a unix socket answers a
//      hot shape repeatedly (fast-lane p99 gated at 10 ms) and a burst of
//      distinct shapes from concurrent clients (slow-lane batching).
//
// Wall-clock throughput is reported but only the gates above (plus
// round-trip integrity) decide the exit status.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "obs/trace.h"
#include "schedule/schedule.h"
#include "serving/client.h"
#include "serving/persist.h"
#include "serving/server.h"
#include "sim/sim_cache.h"
#include "target/gpu_spec.h"
#include "tuner/records.h"
#include "tuner/strategy.h"
#include "tuner/transfer.h"
#include "workloads/ops.h"

using namespace alcop;  // NOLINT(build/namespaces) - bench driver

namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void WipeProcessState() {
  sim::ResetSimCache();
  tuner::TuningStore::Global().Clear();
}

double Percentile(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  std::sort(sorted_ms.begin(), sorted_ms.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted_ms.size()));
  if (idx >= sorted_ms.size()) idx = sorted_ms.size() - 1;
  return sorted_ms[idx];
}

std::string CompileRequest(int id, int64_t m, int64_t n, int64_t k) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"id\":%d,\"method\":\"compile\",\"family\":\"matmul\","
                "\"batch\":1,\"m\":%lld,\"n\":%lld,\"k\":%lld,"
                "\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],"
                "\"smem\":2}}",
                id, static_cast<long long>(m), static_cast<long long>(n),
                static_cast<long long>(k));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  target::GpuSpec spec = target::AmpereSpec();
  const std::vector<schedule::GemmOp>& all_ops = workloads::BenchmarkOps();
  const size_t num_ops = quick ? std::min<size_t>(4, all_ops.size())
                               : all_ops.size();
  const size_t trials = quick ? 10 : 24;
  const std::string cache_path =
      "/tmp/alcop_bench_serving_" + std::to_string(getpid()) + ".alcp";

  // ---- 1a. Cold search per operator, results stored + persisted. ----
  WipeProcessState();
  std::vector<tuner::TuningTask> tasks;
  for (size_t i = 0; i < num_ops; ++i) {
    tasks.push_back(tuner::MakeSimulatorTask(all_ops[i], spec));
  }
  std::vector<double> cold_best(num_ops);
  obs::Stopwatch watch;
  for (size_t i = 0; i < num_ops; ++i) {
    tuner::XgbOptions xgb;
    xgb.pretrain_with_analytical = true;  // the serving default
    tuner::TuningResult result = tuner::XgbTuner(tasks[i], trials, xgb);
    cold_best[i] = result.BestInFirstK(result.trials.size());
    tuner::StoreTuning(tasks[i], result, tuner::TuningStore::Global());
  }
  double cold_seconds = watch.Seconds();

  serving::PersistStats saved = serving::SaveCache(cache_path, spec);

  // ---- 1b. Warm restart: wipe, reload, answer from the store. ----
  WipeProcessState();
  serving::PersistStats loaded = serving::LoadCache(cache_path, spec);
  bool round_trip_ok = saved.ok && loaded.ok &&
                       loaded.timings == saved.timings &&
                       loaded.tunings == saved.tunings && loaded.skipped == 0;

  int restart_mismatches = 0;
  watch.Restart();
  for (size_t i = 0; i < num_ops; ++i) {
    std::optional<tuner::StoredTuning> stored =
        tuner::TuningStore::Global().Get(tuner::OpKey(tasks[i].op));
    std::optional<tuner::StoredTrial> best =
        stored ? stored->Best() : std::nullopt;
    if (!best) {
      ++restart_mismatches;
      continue;
    }
    // Exactly alcopd's warm-restart path: the stored best config
    // re-measured through the (just loaded) sim cache — a cache hit,
    // never a compile.
    sim::KernelTiming timing =
        sim::CachedCompileAndSimulate(tasks[i].op, best->config, spec);
    if (!BitEqual(timing.cycles, best->cycles) ||
        !BitEqual(best->cycles, cold_best[i])) {
      ++restart_mismatches;
    }
  }
  double warm_restart_seconds = watch.Seconds();
  double warm_restart_speedup =
      warm_restart_seconds > 0.0 ? cold_seconds / warm_restart_seconds : 0.0;
  sim::SimCacheStats restart_stats = sim::GetSimCacheStats();

  // ---- 2. Warm-start transfer reaches the cold best everywhere. ----
  size_t ops_reached = 0;
  size_t warm_seeds_total = 0;
  watch.Restart();
  for (size_t i = 0; i < num_ops; ++i) {
    tuner::WarmStart warm =
        tuner::FindWarmStart(tasks[i], tuner::TuningStore::Global());
    tuner::XgbOptions xgb;
    xgb.pretrain_with_analytical = true;
    xgb.warm_seeds = warm.seeds;
    warm_seeds_total += warm.seeds.size();
    tuner::TuningResult result = tuner::XgbTuner(tasks[i], trials, xgb);
    double warm_best = result.BestInFirstK(result.trials.size());
    if (warm_best <= cold_best[i]) ++ops_reached;
  }
  double warm_transfer_seconds = watch.Seconds();

  // ---- 3. LRU residency under half the unbounded footprint. ----
  uint64_t unbounded = sim::GetSimCacheStats().resident_bytes;
  uint64_t budget = unbounded / 2;
  sim::SetSimCacheBudgetBytes(budget);
  // Keep sweeping fresh shape variants through the cache: every insert
  // now lands under the budget, and the LRU must hold residency there
  // while the sweep keeps making progress (re-measures stay hits).
  for (size_t i = 0; i < num_ops; ++i) {
    std::optional<tuner::StoredTuning> stored =
        tuner::TuningStore::Global().Get(tuner::OpKey(tasks[i].op));
    if (!stored) continue;
    schedule::GemmOp variant = tasks[i].op;
    variant.k += 64;  // a shape the cold sweep never compiled
    for (const tuner::StoredTrial& trial : stored->trials) {
      sim::CachedCompileAndSimulate(tasks[i].op, trial.config, spec);
      sim::CachedCompileAndSimulate(variant, trial.config, spec);
    }
  }
  sim::SimCacheStats lru_stats = sim::GetSimCacheStats();
  bool lru_within_budget = lru_stats.resident_bytes <= budget;
  sim::SetSimCacheBudgetBytes(0);

  // ---- 4. In-process daemon: hot-shape p99 and a concurrent burst. ----
  WipeProcessState();
  serving::ServerOptions server_options;
  server_options.socket_path =
      "/tmp/alcop_bench_serving_" + std::to_string(getpid()) + ".sock";
  server_options.spec = spec;
  server_options.default_trials = 4;
  server_options.cache_path = cache_path;  // reload the persisted state
  server_options.persist_on_shutdown = false;
  serving::Server server(server_options);
  std::string server_error;
  if (!server.Start(&server_error)) {
    std::fprintf(stderr, "server start failed: %s\n", server_error.c_str());
    std::remove(cache_path.c_str());
    return 1;
  }

  const int hot_requests = quick ? 200 : 2000;
  std::vector<double> hot_ms;
  bool daemon_ok = true;
  {
    serving::Client client;
    std::string error;
    if (!client.Connect(server_options.socket_path, &error)) {
      std::fprintf(stderr, "client connect failed: %s\n", error.c_str());
      daemon_ok = false;
    } else {
      // First request may compile (slow lane); every one after is a
      // fast-lane probe hit on the same timing entry.
      std::optional<serving::JsonValue> first =
          client.Call(CompileRequest(0, 512, 512, 512));
      if (!first || !first->BoolOr(false)) {
        const serving::JsonValue* ok = first ? first->Find("ok") : nullptr;
        if (ok == nullptr || !ok->BoolOr(false)) daemon_ok = false;
      }
      hot_ms.reserve(static_cast<size_t>(hot_requests));
      for (int i = 1; i <= hot_requests && daemon_ok; ++i) {
        obs::Stopwatch request_watch;
        std::optional<serving::JsonValue> response =
            client.Call(CompileRequest(i, 512, 512, 512));
        double ms = request_watch.Seconds() * 1e3;
        const serving::JsonValue* ok =
            response ? response->Find("ok") : nullptr;
        if (ok == nullptr || !ok->BoolOr(false)) daemon_ok = false;
        hot_ms.push_back(ms);
      }
    }
  }
  double hot_p50_ms = Percentile(hot_ms, 0.50);
  double hot_p99_ms = Percentile(hot_ms, 0.99);

  // Concurrent burst of distinct shapes: each client pipelines cold
  // compiles that all land in one slow-lane drain and replay batch.
  const int burst_clients = 4;
  const int burst_per_client = quick ? 4 : 12;
  std::atomic<int> burst_answered{0};
  watch.Restart();
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < burst_clients; ++t) {
      threads.emplace_back([&, t] {
        serving::Client client;
        if (!client.Connect(server_options.socket_path)) return;
        for (int i = 0; i < burst_per_client; ++i) {
          int64_t k = 768 + 128 * (t * burst_per_client + i);
          std::optional<serving::JsonValue> response =
              client.Call(CompileRequest(t * 1000 + i, 512, 512, k));
          const serving::JsonValue* ok =
              response ? response->Find("ok") : nullptr;
          if (ok != nullptr && ok->BoolOr(false)) {
            burst_answered.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  double burst_seconds = watch.Seconds();
  int burst_requests = burst_clients * burst_per_client;
  if (burst_answered.load() != burst_requests) daemon_ok = false;

  uint64_t requests_served = server.requests_served();
  server.Stop();
  std::remove(cache_path.c_str());

  bool gates_ok = round_trip_ok && restart_mismatches == 0 &&
                  warm_restart_speedup >= 5.0 && ops_reached == num_ops &&
                  lru_within_budget && lru_stats.evictions > 0 && daemon_ok &&
                  hot_p99_ms <= 10.0;

  std::printf(
      "{\n"
      "  \"bench\": \"serving\",\n"
      "  \"quick\": %s,\n"
      "  \"operators\": %zu,\n"
      "  \"trials_per_op\": %zu,\n"
      "  \"tuning\": {\n"
      "    \"cold_seconds\": %.4f,\n"
      "    \"warm_restart_seconds\": %.6f,\n"
      "    \"warm_restart_speedup\": %.1f,\n"
      "    \"restart_mismatches\": %d,\n"
      "    \"restart_timing_hits\": %llu,\n"
      "    \"restart_timing_misses\": %llu,\n"
      "    \"warm_transfer_seconds\": %.4f,\n"
      "    \"warm_seeds_total\": %zu,\n"
      "    \"ops_reaching_cold_best\": %zu\n"
      "  },\n"
      "  \"persistence\": {\n"
      "    \"bytes\": %llu,\n"
      "    \"timings\": %llu,\n"
      "    \"tunings\": %llu,\n"
      "    \"round_trip_ok\": %s\n"
      "  },\n"
      "  \"lru\": {\n"
      "    \"unbounded_bytes\": %llu,\n"
      "    \"budget_bytes\": %llu,\n"
      "    \"resident_bytes\": %llu,\n"
      "    \"evictions\": %llu,\n"
      "    \"within_budget\": %s\n"
      "  },\n"
      "  \"daemon\": {\n"
      "    \"hot_requests\": %d,\n"
      "    \"hot_p50_ms\": %.3f,\n"
      "    \"hot_p99_ms\": %.3f,\n"
      "    \"burst_clients\": %d,\n"
      "    \"burst_requests\": %d,\n"
      "    \"burst_answered\": %d,\n"
      "    \"burst_seconds\": %.4f,\n"
      "    \"requests_served\": %llu\n"
      "  },\n"
      "  \"gates_ok\": %s\n"
      "}\n",
      quick ? "true" : "false", num_ops, trials, cold_seconds,
      warm_restart_seconds, warm_restart_speedup, restart_mismatches,
      static_cast<unsigned long long>(restart_stats.hits),
      static_cast<unsigned long long>(restart_stats.misses),
      warm_transfer_seconds, warm_seeds_total, ops_reached,
      static_cast<unsigned long long>(saved.bytes),
      static_cast<unsigned long long>(saved.timings),
      static_cast<unsigned long long>(saved.tunings),
      round_trip_ok ? "true" : "false",
      static_cast<unsigned long long>(unbounded),
      static_cast<unsigned long long>(budget),
      static_cast<unsigned long long>(lru_stats.resident_bytes),
      static_cast<unsigned long long>(lru_stats.evictions),
      lru_within_budget ? "true" : "false", hot_requests, hot_p50_ms,
      hot_p99_ms, burst_clients, burst_requests, burst_answered.load(),
      burst_seconds, static_cast<unsigned long long>(requests_served),
      gates_ok ? "true" : "false");

  return gates_ok ? 0 : 1;
}
