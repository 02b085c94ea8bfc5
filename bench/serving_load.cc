// Serving load bench: what the observability layer costs and how alcopd
// holds up under an open-loop arrival process. Two sections, one JSON
// object (consumed by `scripts/bench.sh serving_load` into
// BENCH_serving_load.json):
//
//   1. open-loop load — a deterministic-seeded arrival schedule (fixed
//      send times, NOT closed-loop: the sender never waits for a
//      response before sending the next request) drives a mixed
//      hot/cold shape distribution through one pipelined connection.
//      ~85% of requests are fast-lane probe hits on the hot 512^3
//      shape; the rest are fresh shapes that must compile on the slow
//      lane. Reported: offered vs achieved rate, client-side
//      p50/p99/p999, and the same quantiles recomputed from the
//      daemon's own scraped /metrics histograms. Gate: the access-log
//      line count equals the scraped latency-histogram _count summed
//      over both lanes (every request is logged exactly once, and
//      completion bookkeeping happens before the response is sent).
//
//   2. observability overhead — the closed-loop hot-shape loop of
//      bench/serving.cc section 4, against a daemon with the full
//      observability stack enabled (HTTP front end, JSONL access log,
//      per-request spans + histograms) and against a plain daemon, both
//      live at once, in alternating blocks (plain first in even blocks,
//      obs first in odd ones) so host noise falls on both sides alike.
//      Gate: the median of the obs blocks' hot p99s <= 1.1x the larger of
//      the median of the plain blocks' and the committed
//      BENCH_serving.json baseline (passed in via --baseline-p99), i.e.
//      turning on metrics and the access log may not regress the hot path
//      by more than 10%.
//
// The obs-enabled daemon serves the open loop and is scraped before the
// plain daemon starts, so the process-global registry holds only its
// requests when the access-log gate is checked.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/client.h"
#include "serving/http.h"
#include "serving/server.h"
#include "target/gpu_spec.h"

using namespace alcop;  // NOLINT(build/namespaces) - bench driver

namespace {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(values.size()));
  if (idx >= values.size()) idx = values.size() - 1;
  return values[idx];
}

// "[a, b, ...]" with three decimals.
std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (double value : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.3f", out.size() > 1 ? ", " : "",
                  value);
    out += buf;
  }
  return out + "]";
}

std::string CompileRequest(uint64_t id, int64_t m, int64_t n, int64_t k,
                           const char* client = nullptr) {
  char client_field[80] = "";
  if (client != nullptr) {
    std::snprintf(client_field, sizeof(client_field), ",\"client\":\"%s\"",
                  client);
  }
  char buf[336];
  std::snprintf(buf, sizeof(buf),
                "{\"id\":%llu,\"method\":\"compile\",\"family\":\"matmul\","
                "\"batch\":1,\"m\":%lld,\"n\":%lld,\"k\":%lld%s,"
                "\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],"
                "\"smem\":2}}",
                static_cast<unsigned long long>(id), static_cast<long long>(m),
                static_cast<long long>(n), static_cast<long long>(k),
                client_field);
  return buf;
}

// One hot-shape compile round trip; false unless the reply is ok.
bool HotCall(serving::Client* client, uint64_t id) {
  std::optional<serving::JsonValue> response =
      client->Call(CompileRequest(id, 512, 512, 512));
  const serving::JsonValue* ok = response ? response->Find("ok") : nullptr;
  return ok != nullptr && ok->BoolOr(false);
}

// One side of the overhead comparison: a connection to its daemon, warmed
// by one compile (which may take the slow lane), then closed-loop blocks
// of fast-lane probe hits timed one by one.
struct HotSide {
  serving::Client client;
  uint64_t next_id = 1;
  std::vector<double> ms;         // every round trip, client-side
  std::vector<double> block_p99;  // one per block

  bool Connect(const std::string& socket_path) {
    return client.Connect(socket_path) && HotCall(&client, 0);
  }

  bool Block(int requests) {
    std::vector<double> block;
    block.reserve(static_cast<size_t>(requests));
    for (int i = 0; i < requests; ++i) {
      obs::Stopwatch watch;
      if (!HotCall(&client, next_id++)) return false;
      block.push_back(watch.Seconds() * 1e3);
    }
    block_p99.push_back(Percentile(block, 0.99));
    ms.insert(ms.end(), block.begin(), block.end());
    return true;
  }
};

// Splitmix-style step: deterministic across platforms, no libc rand.
uint64_t NextRand(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

constexpr int kLoaders = 4;  // open-loop client identities (loader-0..3)

struct OpenLoopResult {
  bool ok = false;
  uint64_t requests = 0;
  uint64_t answered = 0;
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  uint64_t hot = 0;
  uint64_t cold = 0;
  uint64_t sent_by_loader[kLoaders] = {0};
};

// Open loop: send times are fixed by the seeded schedule before the
// first byte goes out; the sender thread sleeps until each deadline and
// writes the frame whether or not earlier responses have arrived. A
// receiver thread matches responses to requests by id.
OpenLoopResult OpenLoop(const std::string& socket_path, uint64_t requests,
                        double rate_rps, double hot_fraction, uint64_t seed) {
  OpenLoopResult result;
  result.requests = requests;

  struct Slot {
    int64_t send_ns = 0;
    std::atomic<int64_t> done_ns{-1};
  };
  std::vector<Slot> slots(requests);
  std::vector<std::string> payloads(requests);
  uint64_t state = seed;
  const double interval_ns = 1e9 / rate_rps;
  double when = 0.0;
  for (uint64_t i = 0; i < requests; ++i) {
    // Uniform jitter in [0.5, 1.5) of the mean interval: deterministic,
    // mean rate exactly `rate_rps`, but not metronome-regular.
    double jitter =
        0.5 + static_cast<double>(NextRand(&state) >> 11) * 0x1.0p-53;
    when += interval_ns * jitter;
    slots[i].send_ns = static_cast<int64_t>(when);
    bool hot = (static_cast<double>(NextRand(&state) >> 11) * 0x1.0p-53) <
               hot_fraction;
    // Round-robin self-declared identities: the per-client scraped
    // counters must match these send counts exactly.
    char loader[16];
    int loader_index = static_cast<int>(i % kLoaders);
    std::snprintf(loader, sizeof(loader), "loader-%d", loader_index);
    ++result.sent_by_loader[loader_index];
    if (hot) {
      ++result.hot;
      payloads[i] = CompileRequest(i + 1, 512, 512, 512, loader);
    } else {
      ++result.cold;
      // A shape the daemon has never seen: forces a slow-lane compile.
      payloads[i] =
          CompileRequest(i + 1, 512, 512,
                         4096 + 128 * static_cast<int64_t>(result.cold),
                         loader);
    }
  }

  serving::Client client;
  if (!client.Connect(socket_path)) return result;
  // Warm the hot shape so the schedule starts against a warm cache.
  std::optional<serving::JsonValue> warm =
      client.Call(CompileRequest(0, 512, 512, 512));
  const serving::JsonValue* warm_ok = warm ? warm->Find("ok") : nullptr;
  if (warm_ok == nullptr || !warm_ok->BoolOr(false)) return result;

  std::atomic<uint64_t> answered{0};
  std::atomic<bool> receive_failed{false};
  int64_t t0 = obs::NowNanos();
  std::thread receiver([&] {
    for (uint64_t i = 0; i < requests; ++i) {
      std::optional<std::string> raw = client.RecvRaw();
      if (!raw) {
        receive_failed.store(true);
        return;
      }
      const int64_t done_ns = obs::NowNanos() - t0;  // before parsing
      std::optional<serving::JsonValue> reply = serving::ParseJson(*raw);
      const serving::JsonValue* id = reply ? reply->Find("id") : nullptr;
      const serving::JsonValue* ok = reply ? reply->Find("ok") : nullptr;
      const double number = id != nullptr ? id->NumberOr(0) : 0;
      if (number >= 1 && number <= static_cast<double>(requests) &&
          ok != nullptr && ok->BoolOr(false)) {
        slots[static_cast<uint64_t>(number) - 1].done_ns.store(done_ns);
        answered.fetch_add(1);
      }
    }
  });

  for (uint64_t i = 0; i < requests; ++i) {
    int64_t now = obs::NowNanos() - t0;
    int64_t wait = slots[i].send_ns - now;
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    }
    // Restamp with the actual send time so latency excludes scheduler
    // overshoot; the offered rate is still computed off the plan.
    int64_t sent = obs::NowNanos() - t0;
    if (!client.Send(payloads[i])) break;
    slots[i].send_ns = sent;
  }
  receiver.join();

  result.answered = answered.load();
  result.ok = !receive_failed.load() && result.answered == requests;

  int64_t last_done = 0;
  std::vector<double> latency_ms;
  latency_ms.reserve(requests);
  for (Slot& slot : slots) {
    int64_t done = slot.done_ns.load();
    if (done < 0) continue;
    last_done = std::max(last_done, done);
    latency_ms.push_back(static_cast<double>(done - slot.send_ns) / 1e6);
  }
  double planned_seconds = static_cast<double>(slots.back().send_ns) / 1e9;
  result.offered_rps = planned_seconds > 0.0
                           ? static_cast<double>(requests) / planned_seconds
                           : 0.0;
  double run_seconds = static_cast<double>(last_done) / 1e9;
  result.achieved_rps =
      run_seconds > 0.0 ? static_cast<double>(result.answered) / run_seconds
                        : 0.0;
  result.p50_ms = Percentile(latency_ms, 0.50);
  result.p99_ms = Percentile(latency_ms, 0.99);
  result.p999_ms = Percentile(latency_ms, 0.999);
  return result;
}

// Rebuilds obs::HistogramData from the Prometheus exposition text for
// one lane of alcop_serving_request_latency_us. Buckets are cumulative
// in the exposition and per-bucket in HistogramData; the power-of-two
// `le` values map back to bucket indices via log2.
bool ParseScrapedHistogram(const std::string& body, const std::string& lane,
                           obs::HistogramData* data) {
  *data = obs::HistogramData{};
  const std::string bucket_prefix =
      "alcop_serving_request_latency_us_bucket{lane=\"" + lane + "\",le=\"";
  const std::string sum_prefix =
      "alcop_serving_request_latency_us_sum{lane=\"" + lane + "\"} ";
  const std::string count_prefix =
      "alcop_serving_request_latency_us_count{lane=\"" + lane + "\"} ";
  bool saw_count = false;
  uint64_t cumulative[64] = {0};
  int top = -1;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind(bucket_prefix, 0) == 0) {
      size_t quote = line.find('"', bucket_prefix.size());
      if (quote == std::string::npos) return false;
      std::string le = line.substr(bucket_prefix.size(),
                                   quote - bucket_prefix.size());
      uint64_t value = std::strtoull(line.c_str() + quote + 3, nullptr, 10);
      if (le == "+Inf") continue;  // equals _count, checked elsewhere
      double upper = std::strtod(le.c_str(), nullptr);
      int index = upper >= 1.0 ? static_cast<int>(std::lround(std::log2(upper)))
                               : 0;
      if (index < 0 || index >= 64) return false;
      cumulative[index] = value;
      top = std::max(top, index);
    } else if (line.rfind(sum_prefix, 0) == 0) {
      data->sum = std::strtod(line.c_str() + sum_prefix.size(), nullptr);
    } else if (line.rfind(count_prefix, 0) == 0) {
      data->count = std::strtoull(line.c_str() + count_prefix.size(),
                                  nullptr, 10);
      saw_count = true;
    }
  }
  uint64_t previous = 0;
  for (int i = 0; i <= top; ++i) {
    data->buckets[i] = cumulative[i] - previous;
    previous = cumulative[i];
    if (data->buckets[i] > 0) data->max = std::ldexp(1.0, i);
  }
  return saw_count;
}

// Collects every alcop_serving_client_requests{client="..."} sample from
// the exposition: one (identity, count) pair per labeled series.
std::vector<std::pair<std::string, uint64_t>> ParseClientRequestCounts(
    const std::string& body) {
  std::vector<std::pair<std::string, uint64_t>> out;
  const std::string prefix = "alcop_serving_client_requests{client=\"";
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind(prefix, 0) != 0) continue;
    size_t quote = line.find('"', prefix.size());
    if (quote == std::string::npos) continue;
    out.emplace_back(
        line.substr(prefix.size(), quote - prefix.size()),
        std::strtoull(line.c_str() + quote + 3, nullptr, 10));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  double baseline_p99_ms = 0.0;  // 0 = no committed baseline available
  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else if (std::string(argv[i]) == "--baseline-p99" && i + 1 < argc) {
      baseline_p99_ms = std::atof(argv[++i]);
    } else if (std::string(argv[i]) == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    }
  }

  const int blocks = quick ? 6 : 10;
  const int block_requests = quick ? 250 : 1000;
  const uint64_t open_requests = quick ? 300 : 3000;
  const double open_rate_rps = quick ? 500.0 : 1500.0;
  const double hot_fraction = 0.85;
  const uint64_t seed = 42;
  const std::string base =
      "/tmp/alcop_bench_serving_load_" + std::to_string(getpid());
  const std::string access_log_path = base + ".access.jsonl";

  // ---- Obs-enabled daemon: HTTP + access log + per-request metrics.
  // Serves the open loop first, so the global registry holds only its
  // requests when the access-log/_count gate is checked.
  serving::ServerOptions obs_options;
  obs_options.socket_path = base + "_obs.sock";
  obs_options.spec = target::AmpereSpec();
  obs_options.default_trials = 4;
  obs_options.persist_on_shutdown = false;
  obs_options.http_port = 0;
  obs_options.access_log_path = access_log_path;
  // The full flight-recorder stack, deliberately hotter than the
  // defaults: the overhead gate below prices retention + per-client
  // labels + the watchdog together.
  obs_options.flight_depth = 4096;
  obs_options.snapshot_interval_ms = 200;
  obs_options.watchdog_stall_ms = 1000;
  obs_options.client_metrics = true;
  serving::Server obs_server(obs_options);
  std::string error;
  if (!obs_server.Start(&error)) {
    std::fprintf(stderr, "obs server start failed: %s\n", error.c_str());
    return 1;
  }
  int http_port = obs_server.http_port();

  OpenLoopResult open = OpenLoop(obs_options.socket_path, open_requests,
                                 open_rate_rps, hot_fraction, seed);

  // Scrape while the daemon is live, after every response has been
  // received — nothing is in flight, so the histograms and the access
  // log both cover exactly the completed requests.
  std::optional<serving::HttpResponse> scrape =
      serving::HttpCall(http_port, "GET", "/metrics");
  bool scrape_ok = scrape && scrape->status == 200;
  obs::HistogramData scraped_fast, scraped_slow;
  bool parse_ok =
      scrape_ok &&
      ParseScrapedHistogram(scrape->body, "fast", &scraped_fast) &&
      ParseScrapedHistogram(scrape->body, "slow", &scraped_slow);
  if (scrape_ok && !metrics_out.empty()) {
    std::ofstream out(metrics_out);
    out << scrape->body;
  }

  uint64_t access_lines = 0;
  {
    std::ifstream log(access_log_path);
    std::string line;
    while (std::getline(log, line)) {
      if (!line.empty()) ++access_lines;
    }
  }
  uint64_t scraped_total = scraped_fast.count + scraped_slow.count;
  bool access_matches = parse_ok && access_lines == scraped_total;

  // Per-client attribution gates: every completed request was counted
  // against exactly one client series, so the series sum equals the
  // access-log line count; and each open-loop loader identity's scraped
  // count equals what that loader actually sent.
  std::vector<std::pair<std::string, uint64_t>> client_counts =
      scrape_ok ? ParseClientRequestCounts(scrape->body)
                : std::vector<std::pair<std::string, uint64_t>>{};
  uint64_t scraped_client_sum = 0;
  for (const auto& [name, count] : client_counts) {
    scraped_client_sum += count;
  }
  bool client_sum_matches = scrape_ok && scraped_client_sum == access_lines;
  bool loaders_match = scrape_ok;
  uint64_t scraped_by_loader[kLoaders] = {0};
  for (int i = 0; i < kLoaders; ++i) {
    char loader[16];
    std::snprintf(loader, sizeof(loader), "loader-%d", i);
    for (const auto& [name, count] : client_counts) {
      if (name == loader) scraped_by_loader[i] = count;
    }
    if (scraped_by_loader[i] != open.sent_by_loader[i]) loaders_match = false;
  }

  // ---- Plain daemon: no HTTP, no access log, live beside the obs one.
  // Its requests do land in the same global histograms, but the scrape
  // above already happened.
  serving::ServerOptions plain_options;
  plain_options.socket_path = base + "_plain.sock";
  plain_options.spec = target::AmpereSpec();
  plain_options.default_trials = 4;
  plain_options.persist_on_shutdown = false;
  plain_options.flight_depth = 0;
  plain_options.snapshot_interval_ms = 0;
  plain_options.watchdog_stall_ms = 0;
  plain_options.client_metrics = false;
  serving::Server plain_server(plain_options);
  if (!plain_server.Start(&error)) {
    std::fprintf(stderr, "plain server start failed: %s\n", error.c_str());
    return 1;
  }
  HotSide plain_side, obs_side;
  bool hot_ok = plain_side.Connect(plain_options.socket_path) &&
                obs_side.Connect(obs_options.socket_path);
  for (int b = 0; hot_ok && b < blocks; ++b) {
    HotSide& first = b % 2 == 0 ? plain_side : obs_side;
    HotSide& second = b % 2 == 0 ? obs_side : plain_side;
    hot_ok = first.Block(block_requests) && second.Block(block_requests);
  }
  plain_side.client.Close();
  obs_side.client.Close();
  plain_server.Stop();
  obs_server.Stop();
  std::remove(access_log_path.c_str());
  double plain_hot_p50 = Percentile(plain_side.ms, 0.50);
  double plain_hot_p99 = Percentile(plain_side.block_p99, 0.50);
  double obs_hot_p50 = Percentile(obs_side.ms, 0.50);
  double obs_hot_p99 = Percentile(obs_side.block_p99, 0.50);

  // The overhead gate compares block medians, and against the larger of
  // the plain side and the committed baseline: a fast plain side cannot
  // fail a build on its own, but a real regression against the
  // checked-in number still does.
  double reference_p99 = std::max(plain_hot_p99, baseline_p99_ms);
  bool overhead_ok = hot_ok && obs_hot_p99 <= 1.10 * reference_p99;

  bool gates_ok = overhead_ok && open.ok && scrape_ok && parse_ok &&
                  access_matches && client_sum_matches && loaders_match;

  std::printf(
      "{\n"
      "  \"bench\": \"serving_load\",\n"
      "  \"quick\": %s,\n"
      "  \"seed\": %llu,\n"
      "  \"overhead\": {\n"
      "    \"hot_requests\": %d,\n"
      "    \"blocks\": %d,\n"
      "    \"block_requests\": %d,\n"
      "    \"plain_p50_ms\": %.3f,\n"
      "    \"plain_p99_ms\": %.3f,\n"
      "    \"obs_p50_ms\": %.3f,\n"
      "    \"obs_p99_ms\": %.3f,\n"
      "    \"plain_block_p99_ms\": %s,\n"
      "    \"obs_block_p99_ms\": %s,\n"
      "    \"baseline_p99_ms\": %.3f,\n"
      "    \"reference_p99_ms\": %.3f,\n"
      "    \"overhead_ok\": %s\n"
      "  },\n"
      "  \"open_loop\": {\n"
      "    \"requests\": %llu,\n"
      "    \"answered\": %llu,\n"
      "    \"hot\": %llu,\n"
      "    \"cold\": %llu,\n"
      "    \"offered_rps\": %.1f,\n"
      "    \"achieved_rps\": %.1f,\n"
      "    \"client_p50_ms\": %.3f,\n"
      "    \"client_p99_ms\": %.3f,\n"
      "    \"client_p999_ms\": %.3f\n"
      "  },\n"
      "  \"scraped\": {\n"
      "    \"fast_count\": %llu,\n"
      "    \"fast_p50_us\": %.1f,\n"
      "    \"fast_p99_us\": %.1f,\n"
      "    \"fast_p999_us\": %.1f,\n"
      "    \"slow_count\": %llu,\n"
      "    \"slow_p50_us\": %.1f,\n"
      "    \"slow_p99_us\": %.1f,\n"
      "    \"slow_p999_us\": %.1f,\n"
      "    \"access_log_lines\": %llu,\n"
      "    \"access_log_matches_count\": %s\n"
      "  },\n"
      "  \"client_attribution\": {\n"
      "    \"client_series\": %zu,\n"
      "    \"scraped_client_sum\": %llu,\n"
      "    \"sum_matches_access_log\": %s,\n"
      "    \"loader_sent\": [%llu, %llu, %llu, %llu],\n"
      "    \"loader_scraped\": [%llu, %llu, %llu, %llu],\n"
      "    \"loaders_match\": %s\n"
      "  },\n"
      "  \"gates_ok\": %s\n"
      "}\n",
      quick ? "true" : "false", static_cast<unsigned long long>(seed),
      blocks * block_requests, blocks, block_requests, plain_hot_p50,
      plain_hot_p99, obs_hot_p50, obs_hot_p99,
      JsonList(plain_side.block_p99).c_str(),
      JsonList(obs_side.block_p99).c_str(), baseline_p99_ms, reference_p99,
      overhead_ok ? "true" : "false",
      static_cast<unsigned long long>(open.requests),
      static_cast<unsigned long long>(open.answered),
      static_cast<unsigned long long>(open.hot),
      static_cast<unsigned long long>(open.cold), open.offered_rps,
      open.achieved_rps, open.p50_ms, open.p99_ms, open.p999_ms,
      static_cast<unsigned long long>(scraped_fast.count),
      obs::HistogramQuantile(scraped_fast, 0.50),
      obs::HistogramQuantile(scraped_fast, 0.99),
      obs::HistogramQuantile(scraped_fast, 0.999),
      static_cast<unsigned long long>(scraped_slow.count),
      obs::HistogramQuantile(scraped_slow, 0.50),
      obs::HistogramQuantile(scraped_slow, 0.99),
      obs::HistogramQuantile(scraped_slow, 0.999),
      static_cast<unsigned long long>(access_lines),
      access_matches ? "true" : "false", client_counts.size(),
      static_cast<unsigned long long>(scraped_client_sum),
      client_sum_matches ? "true" : "false",
      static_cast<unsigned long long>(open.sent_by_loader[0]),
      static_cast<unsigned long long>(open.sent_by_loader[1]),
      static_cast<unsigned long long>(open.sent_by_loader[2]),
      static_cast<unsigned long long>(open.sent_by_loader[3]),
      static_cast<unsigned long long>(scraped_by_loader[0]),
      static_cast<unsigned long long>(scraped_by_loader[1]),
      static_cast<unsigned long long>(scraped_by_loader[2]),
      static_cast<unsigned long long>(scraped_by_loader[3]),
      loaders_match ? "true" : "false", gates_ok ? "true" : "false");

  return gates_ok ? 0 : 1;
}
