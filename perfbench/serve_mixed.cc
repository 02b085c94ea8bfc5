// serve-mixed: an in-process alcopd (the defaults of `alcop_cli serve` plus
// a sim-cache byte budget) restarted from a persisted store, driven by one
// closed-loop unix-socket client. About nine requests in ten are fast-lane
// work (a compile of a stored config, or a tune of a stored operator); about
// one in ten compiles a config the daemon has never seen. The store holds a
// real alcopd tuning of each Fig. 10 operator and a seeded draw of their
// schedules.
//
// The budget is what the loaded store occupies. The client keeps asking for
// a fixed hot set of stored configs, so every cold insert evicts the oldest
// entries (stored ones nobody asks for) while the hot set stays resident.
// The run is a series of segments of a fixed number of requests; each
// restarts the daemon from the store and touches the hot set untimed first,
// so every segment sees the same cache regime. (Over longer stretches the
// skeleton pool's share of the budget grows and evictions start to reach
// the hot set; segments keep that drift out of the timed numbers.)
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "obs/trace.h"
#include "serving/client.h"
#include "serving/persist.h"
#include "serving/protocol.h"
#include "serving/server.h"
#include "sim/sim_cache.h"
#include "tuner/records.h"
#include "tuner/space.h"
#include "tuner/strategy.h"
#include "tuner/transfer.h"
#include "workloads/ops.h"

namespace perfbench {
namespace {

using alcop::schedule::GemmOp;
using alcop::schedule::ScheduleConfig;
namespace obs = alcop::obs;
namespace serving = alcop::serving;
namespace sim = alcop::sim;
namespace tuner = alcop::tuner;

constexpr double kColdShare = 0.10;
constexpr double kTuneShare = 0.10;

enum Kind : uint8_t { kHotCompile, kStoredTune, kColdCompile };

struct Pair {
  size_t shape = 0;
  ScheduleConfig config;
};

// The operator as the daemon parses it from a request (ParseOpJson).
GemmOp ProtocolOp(const GemmOp& op, int64_t m_scale) {
  GemmOp out;
  out.family = op.family;
  out.batch = op.batch;
  out.m = op.m * m_scale;
  out.n = op.n;
  out.k = op.k;
  out.name = std::string(alcop::schedule::OpFamilyName(out.family)) + "_" +
             std::to_string(out.m) + "x" + std::to_string(out.n) + "x" +
             std::to_string(out.k);
  return out;
}

std::string OpFields(const GemmOp& op) {
  return std::string("\"family\":\"") + alcop::schedule::OpFamilyName(op.family) +
         "\",\"batch\":" + std::to_string(op.batch) + ",\"m\":" + std::to_string(op.m) +
         ",\"n\":" + std::to_string(op.n) + ",\"k\":" + std::to_string(op.k);
}

std::string ConfigJson(const ScheduleConfig& c) {
  auto b = [](bool v) { return v ? "true" : "false"; };
  return "{\"tb\":[" + std::to_string(c.tile.tb_m) + "," + std::to_string(c.tile.tb_n) + "," +
         std::to_string(c.tile.tb_k) + "],\"warp\":[" + std::to_string(c.tile.warp_m) + "," +
         std::to_string(c.tile.warp_n) + "," + std::to_string(c.tile.warp_k) +
         "],\"smem\":" + std::to_string(c.smem_stages) + ",\"reg\":" +
         std::to_string(c.reg_stages) + ",\"split_k\":" + std::to_string(c.split_k) +
         ",\"raster\":" + std::to_string(c.raster_block) + ",\"fusion\":" + b(c.inner_fusion) +
         ",\"swizzle\":" + b(c.swizzle) + ",\"async\":" + b(c.async_copies) + "}";
}

std::string CompileBody(const GemmOp& op, const ScheduleConfig& config) {
  return ",\"method\":\"compile\"," + OpFields(op) + ",\"config\":" + ConfigJson(config) + "}";
}

struct Expected {
  bool feasible = false;
  double cycles = 0.0;
};

// Everything the untimed preparation step builds: the request universe,
// the persisted store and the answers the store must give back.
struct Prepared {
  std::vector<GemmOp> shapes;  // 12 Fig. 10 operators x m-scales 1..4
  std::vector<Pair> pairs;     // every (shape, schedule) of their spaces
  std::vector<size_t> store;   // drawn pairs in the store (scale-1 shapes only)
  std::vector<Expected> store_timing;  // aligned with `store`
  std::vector<size_t> hot;             // indices into `store`
  std::vector<size_t> cold;            // never-stored pairs, seeded order
  std::vector<std::string> hot_body;   // request text after the id, per hot entry
  std::vector<std::string> tune_body;  // one per Fig. 10 operator
  std::vector<std::string> tune_config;
  std::vector<double> tune_cycles;
  std::string store_path;
  uint64_t store_bytes = 0;
  double load_ms = 0.0;
  uint64_t budget_bytes = 0;
};

Prepared Prepare(const Options& options, const alcop::target::GpuSpec& spec, Report* report) {
  Prepared prep;
  const std::vector<GemmOp>& fig10 = alcop::workloads::BenchmarkOps();
  for (int64_t scale = 1; scale <= 4; ++scale) {
    for (const GemmOp& op : fig10) prep.shapes.push_back(ProtocolOp(op, scale));
  }
  std::vector<size_t> shape_begin;  // first pair of each shape
  for (size_t s = 0; s < prep.shapes.size(); ++s) {
    shape_begin.push_back(prep.pairs.size());
    for (const ScheduleConfig& config : tuner::EnumerateSpace(prep.shapes[s])) {
      prep.pairs.push_back({s, config});
    }
  }
  const size_t fig10_pairs = shape_begin[fig10.size()];
  const size_t store_size = options.quick ? 300 : 4000;
  const size_t hot_size = options.quick ? 50 : 500;

  // Tune every Fig. 10 operator the way alcopd does, into the daemon's
  // store; the configs the tuner measured count as stored. Then compile
  // the drawn schedules into the same cache.
  sim::ResetSimCache();
  tuner::TuningStore::Global().Clear();
  std::vector<bool> stored(prep.pairs.size(), false);
  for (size_t i = 0; i < fig10.size(); ++i) {
    TuneLikeAlcopd(prep.shapes[i], spec, options.seed, &tuner::TuningStore::Global(), nullptr);
    std::optional<tuner::StoredTuning> tuning =
        tuner::TuningStore::Global().Get(tuner::OpKey(prep.shapes[i]));
    if (!tuning) continue;
    std::unordered_map<std::string, size_t> by_config;
    for (size_t p = shape_begin[i]; p < shape_begin[i + 1]; ++p) {
      by_config[prep.pairs[p].config.ToString()] = p;
    }
    for (const tuner::StoredTrial& trial : tuning->trials) {
      auto it = by_config.find(trial.config.ToString());
      if (it != by_config.end()) stored[it->second] = true;
    }
    std::optional<tuner::StoredTrial> best = tuning->Best();
    if (!best) continue;  // no feasible trial: no tune requests for it
    prep.tune_body.push_back(",\"method\":\"tune\"," + OpFields(prep.shapes[i]) + "}");
    prep.tune_config.push_back(best->config.ToString());
    prep.tune_cycles.push_back(best->cycles);
  }
  std::vector<size_t> order = SeededOrder(fig10_pairs, MixSeed(options.seed, 11));
  for (size_t p : order) {
    if (prep.store.size() == store_size) break;
    if (stored[p]) continue;
    stored[p] = true;
    prep.store.push_back(p);
  }
  for (size_t i : SeededOrder(prep.pairs.size(), MixSeed(options.seed, 12))) {
    if (!stored[i]) prep.cold.push_back(i);
  }
  std::vector<size_t> hot_order = SeededOrder(store_size, MixSeed(options.seed, 13));
  prep.hot.assign(hot_order.begin(), hot_order.begin() + static_cast<ptrdiff_t>(hot_size));
  for (size_t p : prep.store) {
    const Pair& pair = prep.pairs[p];
    sim::KernelTiming timing =
        sim::CachedCompileAndSimulate(prep.shapes[pair.shape], pair.config, spec);
    prep.store_timing.push_back({timing.feasible, timing.cycles});
  }
  for (size_t h : prep.hot) {
    const Pair& pair = prep.pairs[prep.store[h]];
    prep.hot_body.push_back(CompileBody(prep.shapes[pair.shape], pair.config));
  }

  prep.store_path = options.out_dir + "/serve-store.alcp";
  serving::PersistStats saved = serving::SaveCache(prep.store_path, spec);
  if (!saved.ok) report->Fail("cannot save the store: " + saved.error);
  prep.store_bytes = saved.bytes;

  // Load the store once into emptied caches: the load time on its own, and
  // the footprint the budget is set to (plus 1%, so the load never evicts).
  sim::ResetSimCache();
  tuner::TuningStore::Global().Clear();
  obs::Stopwatch load;
  serving::PersistStats loaded = serving::LoadCache(prep.store_path, spec);
  prep.load_ms = load.Seconds() * 1e3;
  if (!loaded.ok) report->Fail("cannot load the store: " + loaded.error);
  prep.budget_bytes = sim::GetSimCacheStats().resident_bytes * 101 / 100;
  sim::ResetSimCache();
  tuner::TuningStore::Global().Clear();
  malloc_trim(0);
  return prep;
}

serving::ServerOptions ServeOptions(const Options& options, const std::string& cache_path) {
  serving::ServerOptions server;  // alcop_cli serve defaults
  server.spec = alcop::target::AmpereSpec();
  server.socket_path = options.out_dir + "/alcopd.sock";
  server.cache_path = cache_path;
  return server;
}

// Restarts the daemon from a fresh copy of the prepared store into emptied
// caches; returns the time Server::Start took.
double StartServer(const Prepared& prep, const serving::ServerOptions& server_options,
                   std::unique_ptr<serving::Server>* server, Report* report) {
  sim::ResetSimCache();
  tuner::TuningStore::Global().Clear();
  std::filesystem::copy_file(prep.store_path, server_options.cache_path,
                             std::filesystem::copy_options::overwrite_existing);
  obs::Stopwatch watch;
  *server = std::make_unique<serving::Server>(server_options);
  std::string error;
  if (!(*server)->Start(&error)) {
    report->Fail("alcopd did not start: " + error);
    server->reset();
  }
  return watch.Seconds();
}

struct Sent {
  uint64_t id = 0;
  Kind kind = kHotCompile;
  size_t item = 0;  // index into hot or tune_body, or the cold pair
  double rtt_us = 0.0;
  bool feasible = false;  // compile replies
  double cycles = 0.0;
};

struct ClientRun {
  std::vector<Sent> sent;
  double busy_s = 0.0;  // request building, round trips and reply parsing
};

// One closed-loop connection sending the seeded mix. Successive Run calls
// continue one request sequence, so the timed phase picks up where the
// fill phase stopped.
class MixClient {
 public:
  MixClient(const Prepared& prep, const Options& options)
      : prep_(prep), options_(options), mix_(MixSeed(options.seed, 14)) {}

  // (Re)connects to a daemon; the request sequence carries on.
  bool Connect(const std::string& socket_path, Report* report) {
    client_.Close();
    std::string error;
    if (client_.Connect(socket_path, &error)) return true;
    report->Fail("cannot connect: " + error);
    return false;
  }

  // Sends requests until `max_requests` are answered or `max_seconds` of
  // wall time pass. Reply checks happen outside the timed part of each
  // iteration; `between` runs every 1000 requests, also untimed.
  ClientRun Run(size_t max_requests, double max_seconds, const std::function<void()>& between,
                Report* report) {
    ClientRun run;
    run.sent.reserve(std::min<size_t>(max_requests, 1 << 19));
    obs::Stopwatch wall;
    int64_t busy_ns = 0;
    while (run.sent.size() < max_requests && wall.Seconds() < max_seconds) {
      Sent sent = Next();
      int64_t t0 = obs::NowNanos();
      std::string payload = "{\"id\":" + std::to_string(sent.id);
      if (sent.kind == kColdCompile) {
        const Pair& pair = prep_.pairs[sent.item];
        payload += CompileBody(prep_.shapes[pair.shape], pair.config);
      } else {
        payload += sent.kind == kStoredTune ? prep_.tune_body[sent.item]
                                            : prep_.hot_body[sent.item];
      }
      int64_t t1 = obs::NowNanos();
      std::optional<std::string> raw;
      if (client_.Send(payload)) raw = client_.RecvRaw();
      int64_t t2 = obs::NowNanos();
      std::optional<serving::JsonValue> reply;
      if (raw) reply = serving::ParseJson(*raw);
      int64_t t3 = obs::NowNanos();
      busy_ns += t3 - t0;
      sent.rtt_us = static_cast<double>(t2 - t1) / 1e3;
      if (!raw) {
        report->Fail("connection lost at request " + std::to_string(sent.id));
        break;
      }
      Check(reply, *raw, &sent, report);
      run.sent.push_back(sent);
      if (run.sent.size() % 1000 == 0 && between) between();
    }
    run.busy_s = static_cast<double>(busy_ns) / 1e9;
    return run;
  }

 private:
  Sent Next() {
    Sent sent;
    sent.id = next_id_++;
    const double u = mix_.Uniform();
    if (u < kColdShare && next_cold_ < prep_.cold.size()) {
      sent.kind = kColdCompile;
      sent.item = prep_.cold[next_cold_++];
    } else if (u < kColdShare + kTuneShare && !prep_.tune_body.empty()) {
      sent.kind = kStoredTune;
      sent.item = static_cast<size_t>(
          mix_.UniformInt(0, static_cast<int64_t>(prep_.tune_body.size()) - 1));
    } else {
      sent.kind = kHotCompile;
      sent.item = static_cast<size_t>(
          mix_.UniformInt(0, static_cast<int64_t>(prep_.hot.size()) - 1));
    }
    return sent;
  }

  // Every reply must be ok and carry its id; stored answers must equal
  // what the preparation step stored.
  void Check(const std::optional<serving::JsonValue>& reply, const std::string& raw,
             Sent* sent, Report* report) const {
    const serving::JsonValue* ok = reply ? reply->Find("ok") : nullptr;
    const serving::JsonValue* reply_id = reply ? reply->Find("id") : nullptr;
    if (ok == nullptr || !ok->BoolOr(false) || reply_id == nullptr ||
        reply_id->NumberOr(0) != static_cast<double>(sent->id)) {
      report->Fail("request " + std::to_string(sent->id) + ": " + raw);
      return;
    }
    if (sent->kind == kStoredTune) {
      const serving::JsonValue* config = reply->Find("best_config");
      const serving::JsonValue* cycles = reply->Find("best_cycles");
      sent->cycles = cycles != nullptr ? cycles->NumberOr(0) : 0.0;
      if (config == nullptr || cycles == nullptr ||
          config->StringOr("") != prep_.tune_config[sent->item] ||
          !SameBits(cycles->NumberOr(0), OracleCycles(prep_.tune_cycles[sent->item], options_))) {
        report->Fail("stored tune differs from the store: " + raw);
      }
      return;
    }
    const serving::JsonValue* feasible = reply->Find("feasible");
    const serving::JsonValue* cycles = reply->Find("cycles");
    sent->feasible = feasible != nullptr && feasible->BoolOr(false);
    sent->cycles = cycles != nullptr ? cycles->NumberOr(0) : 0.0;
    if (sent->kind == kHotCompile) {
      const Expected& expected = prep_.store_timing[prep_.hot[sent->item]];
      if (sent->feasible != expected.feasible ||
          (expected.feasible && !SameBits(sent->cycles, OracleCycles(expected.cycles, options_)))) {
        report->Fail("stored compile differs from the store: " + raw);
      }
    }
  }

  const Prepared& prep_;
  const Options& options_;
  serving::Client client_;
  alcop::Rng mix_;
  size_t next_cold_ = 0;
  uint64_t next_id_ = 1;
};

// Untimed fill phase: enough of the mix that every hot entry has been
// touched several times before timing starts.
void FillCache(MixClient* client, const Prepared& prep, double max_seconds, Report* report) {
  ClientRun fill = client->Run(prep.hot.size() * 12, max_seconds, nullptr, report);
  report->attempted += fill.sent.size();
}

// Interpreter oracle on a seeded sample of hot and cold compile replies.
void CheckCompileSample(const Prepared& prep, const ClientRun& run,
                        const alcop::target::GpuSpec& spec, const Options& options,
                        Report* report) {
  const size_t per_kind = options.quick ? 4 : 16;
  size_t checked[3] = {0, 0, 0};
  for (size_t i : SeededOrder(run.sent.size(), MixSeed(options.seed, 15))) {
    const Sent& sent = run.sent[i];
    if (sent.kind == kStoredTune || checked[sent.kind] >= per_kind) continue;
    ++checked[sent.kind];
    const Pair& pair =
        prep.pairs[sent.kind == kColdCompile ? sent.item : prep.store[prep.hot[sent.item]]];
    std::string why;
    try {
      why = CheckAgainstInterpreter(prep.shapes[pair.shape], pair.config, spec, sent.feasible,
                                    sent.cycles, options);
    } catch (const std::exception& e) {
      why = prep.shapes[pair.shape].name + " " + pair.config.ToString() + ": " + e.what();
    }
    if (!why.empty()) report->Fail(why);
  }
}

struct LogLine {
  std::string lane;
  std::string outcome;
  double queue_us = 0.0;
  double service_us = 0.0;
  double total_us = 0.0;
};

// The daemon's access log, keyed by the client's request id.
std::unordered_map<uint64_t, LogLine> ReadAccessLog(const std::string& path, Report* report) {
  std::unordered_map<uint64_t, LogLine> lines;
  std::ifstream in(path);
  std::string text;
  while (std::getline(in, text)) {
    std::optional<serving::JsonValue> json = serving::ParseJson(text);
    if (!json) {
      report->Fail("unparseable access-log line: " + text);
      continue;
    }
    auto field = [&](const char* key) -> const serving::JsonValue* {
      static const serving::JsonValue kNull;
      const serving::JsonValue* v = json->Find(key);
      return v != nullptr ? v : &kNull;
    };
    LogLine line;
    line.lane = field("lane")->StringOr("");
    line.outcome = field("outcome")->StringOr("");
    line.queue_us = field("queue_us")->NumberOr(0);
    line.service_us = field("service_us")->NumberOr(0);
    line.total_us = field("total_us")->NumberOr(0);
    lines[static_cast<uint64_t>(field("client_id")->NumberOr(0))] = line;
  }
  return lines;
}

void TracedRun(const Prepared& prep, const alcop::target::GpuSpec& spec,
               const Options& options, Report* report) {
  const size_t requests = options.quick ? 2000 : 40000;  // one segment
  const std::string cache_path = options.out_dir + "/serve-live.alcp";

  // Reference: the same request sequence with no access log and nobody
  // reading the rings.
  serving::ServerOptions plain = ServeOptions(options, cache_path);
  std::unique_ptr<serving::Server> server;
  StartServer(prep, plain, &server, report);
  if (!server) return;
  MixClient plain_client(prep, options);
  if (!plain_client.Connect(plain.socket_path, report)) return;
  FillCache(&plain_client, prep, options.seconds, report);
  ClientRun reference = plain_client.Run(requests, options.seconds * 0.4, nullptr, report);
  server->Stop();
  server.reset();

  serving::ServerOptions traced = plain;
  traced.access_log_path = options.out_dir + "/serve-access.jsonl";
  std::filesystem::remove(traced.access_log_path);
  StartServer(prep, traced, &server, report);
  if (!server) return;
  MixClient traced_client(prep, options);
  if (!traced_client.Connect(traced.socket_path, report)) return;
  FillCache(&traced_client, prep, options.seconds, report);
  obs::ClearTrace();
  const sim::SimCacheStats before = sim::GetSimCacheStats();
  std::vector<obs::TraceSpan> spans;  // kept for the Chrome trace
  std::vector<obs::TraceSpan> lane;   // slow-lane rounds and their stage spans
  LayerMetrics layers;
  layers.serving_on_path = true;
  auto drain = [&] {
    std::vector<obs::TraceSpan> chunk;
    DrainTrace(&chunk, report);
    layers.stages.Add(BuildSpanTree(chunk), nullptr);
    for (const obs::TraceSpan& span : chunk) {
      const std::string name = span.name;
      if (name == "serving.batch" || name == "compile-kernel" || name == "sim-compile" ||
          name == "replay") {
        lane.push_back(span);
      }
    }
    if (spans.size() < 50000) spans.insert(spans.end(), chunk.begin(), chunk.end());
  };
  ClientRun run = traced_client.Run(reference.sent.size(), options.seconds * 0.5, drain, report);
  drain();
  server->Stop();
  server.reset();
  const sim::SimCacheStats after = sim::GetSimCacheStats();
  report->attempted += reference.sent.size() + run.sent.size();
  CheckCompileSample(prep, run, spec, options, report);

  // Sim-cache work of a slow-lane round: the time from its start to the
  // end of its last replay outside the compile stages and replays (request
  // parsing, key building, lookups, interning, inserts); the reply that
  // follows is serving work. A round's own span may land in the drain after
  // its stage spans, so this joins them once the run is over.
  std::vector<obs::TraceSpan> rounds, stages;
  for (const obs::TraceSpan& span : lane) {
    (std::string(span.name) == "serving.batch" ? rounds : stages).push_back(span);
  }
  auto by_start = [](const obs::TraceSpan& a, const obs::TraceSpan& b) {
    return a.start_ns < b.start_ns;
  };
  std::sort(stages.begin(), stages.end(), by_start);
  for (const obs::TraceSpan& round : rounds) {
    int64_t stages_ns = 0;
    int64_t last_end_ns = round.start_ns;
    for (auto it = std::lower_bound(stages.begin(), stages.end(), round, by_start);
         it != stages.end() && it->start_ns < round.end_ns; ++it) {
      if (it->thread_id == round.thread_id && it->depth == round.depth &&
          it->end_ns <= round.end_ns) {
        stages_ns += it->end_ns - it->start_ns;
        last_end_ns = std::max(last_end_ns, it->end_ns);
      }
    }
    if (stages_ns == 0) continue;  // nothing compiled or replayed
    layers.stages.cache.push_back(
        static_cast<double>(last_end_ns - round.start_ns - stages_ns) / 1e3);
  }

  std::unordered_map<uint64_t, LogLine> log = ReadAccessLog(traced.access_log_path, report);
  double layers_us = 0.0;
  uint64_t compiles = 0, hits = 0, hot_on_slow = 0, cold = 0, feasible = 0;
  double ops_sum = 0.0;
  for (const Sent& sent : run.sent) {
    auto it = log.find(sent.id);
    if (it == log.end()) {
      report->Fail("request " + std::to_string(sent.id) + " missing from the access log");
      continue;
    }
    const LogLine& line = it->second;
    const bool slow = line.lane == "slow";
    (slow ? layers.slow_queue_us : layers.fast_queue_us).push_back(line.queue_us);
    (slow ? layers.slow_service_us : layers.fast_service_us).push_back(line.service_us);
    layers.transport_us.push_back(sent.rtt_us - line.total_us);
    layers_us += sent.rtt_us;  // queue + service + transport
    if (sent.kind != kStoredTune) {
      ++compiles;
      if (line.outcome == "hit") ++hits;
    }
    if (sent.kind != kColdCompile && slow) ++hot_on_slow;
    if (sent.kind == kColdCompile) {
      ++cold;
      if (!sent.feasible) continue;
      ++feasible;
      const Pair& pair = prep.pairs[sent.item];
      ops_sum += static_cast<double>(
          sim::CachedSimProgram(prep.shapes[pair.shape], pair.config, spec)->program.TotalOps());
    }
  }

  layers.program_ops = Ratio(ops_sum, static_cast<double>(feasible));
  layers.sim_feasible_ratio = Ratio(static_cast<double>(feasible), static_cast<double>(cold));
  layers.programs_per_skeleton = Ratio(static_cast<double>(after.program_entries),
                                       static_cast<double>(after.program_skeletons));
  layers.resident_mb = static_cast<double>(after.resident_bytes) / 1e6;
  layers.evictions = static_cast<double>(after.evictions - before.evictions);
  layers.hit_rate = Ratio(static_cast<double>(hits), static_cast<double>(compiles));
  layers.hot_on_slow = static_cast<double>(hot_on_slow);
  layers.load_ms = prep.load_ms;
  layers.store_bytes = static_cast<double>(prep.store_bytes);
  layers.unattributed_fraction = 1.0 - layers_us / (run.busy_s * 1e6);
  // Per request: the traced phase may stop earlier on its time cap.
  layers.trace_overhead_fraction =
      (run.busy_s / static_cast<double>(run.sent.size())) /
          (reference.busy_s / static_cast<double>(reference.sent.size())) -
      1.0;
  report->AddLayers(layers);

  const std::string path = options.out_dir + "/trace-serve-mixed-seed" +
                           std::to_string(options.seed) + ".json";
  if (!WriteChromeTrace(path, spans)) report->Fail("cannot write " + path);
  std::printf("chrome trace: %s (%zu spans)\n", path.c_str(), spans.size());
  std::filesystem::remove(cache_path);
}

}  // namespace

void RunServeMixed(const Options& options, Report* report) {
  const alcop::target::GpuSpec spec = alcop::target::AmpereSpec();
  Prepared prep = Prepare(options, spec, report);
  // `alcop_cli serve --budget`: applies to every insert from here on,
  // including the store load inside Server::Start.
  sim::SetSimCacheBudgetBytes(prep.budget_bytes);
  std::printf("serve-mixed: store %zu schedules, %llu bytes; hot set %zu; budget %llu bytes\n",
              prep.store.size(), static_cast<unsigned long long>(prep.store_bytes),
              prep.hot.size(), static_cast<unsigned long long>(prep.budget_bytes));

  if (options.trace) {
    TracedRun(prep, spec, options, report);
    std::filesystem::remove(prep.store_path);
    return;
  }

  // Segments of a fixed number of requests: each restarts the daemon from
  // the store (the set-up, whose median is reported), touches the hot set
  // untimed, then times its requests, so every segment sees the same cache
  // regime and the same allocation churn, the way every compile-cold round
  // starts from an empty cache. Free heap pages go back to the system
  // between segments, as they would between daemon processes, so peak RSS
  // is one daemon's peak whatever the number of segments. Whole segments
  // run while the next is expected to fit in the time budget.
  const size_t segment = options.quick ? 2000 : 40000;
  const std::string cache_path = options.out_dir + "/serve-live.alcp";
  const serving::ServerOptions server_options = ServeOptions(options, cache_path);
  std::vector<double> setup, compile_ms;
  compile_ms.reserve(1 << 21);  // untouched capacity costs no resident memory
  std::vector<double> tuned(prep.tune_body.size(), 0.0);  // best cycles per tuned operator
  size_t requests = 0;
  double busy_s = 0.0;
  double last_busy_s = 0.0;
  MixClient client(prep, options);
  while (setup.empty() || busy_s + last_busy_s <= options.seconds) {
    std::unique_ptr<serving::Server> server;
    setup.push_back(StartServer(prep, server_options, &server, report));
    if (!server || !client.Connect(server_options.socket_path, report)) return;
    FillCache(&client, prep, options.seconds, report);
    ClientRun part = client.Run(segment, options.seconds, nullptr, report);
    server.reset();  // Stop: joins the lanes and persists the cache
    sim::ResetSimCache();
    malloc_trim(0);
    report->attempted += part.sent.size();
    CheckCompileSample(prep, part, spec, options, report);
    for (const Sent& sent : part.sent) {
      if (sent.kind == kStoredTune) {
        tuned[sent.item] = sent.cycles;
      } else {
        compile_ms.push_back(sent.rtt_us / 1e3);
      }
    }
    requests += part.sent.size();
    busy_s += part.busy_s;
    last_busy_s = part.busy_s;
  }
  std::filesystem::remove(cache_path);
  std::filesystem::remove(prep.store_path);

  std::printf("serve-mixed: %zu segments, %zu timed requests (%zu compiles) in %.3f s busy\n",
              setup.size(), requests, compile_ms.size(), busy_s);
  report->Add("throughput_per_s", static_cast<double>(requests) / busy_s, "1/s");
  report->Add("latency_p50_ms", Percentile(compile_ms, 0.5), "ms");
  report->Add("latency_p99_ms", P99(compile_ms, "compile latency"), "ms");
  report->Add("best_cycles_geomean", Geomean(tuned), "cycles");
  report->AddSetup(setup);
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
