#include "serving/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "obs/chrome_trace.h"
#include "obs/flight.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "serving/http.h"
#include "serving/persist.h"
#include "serving/protocol.h"
#include "sim/pmu.h"
#include "sim/sim_cache.h"
#include "support/json.h"
#include "tuner/records.h"
#include "tuner/strategy.h"
#include "tuner/transfer.h"

namespace alcop {
namespace serving {

using support::JsonEscape;

namespace {

// One client connection — either a unix-socket peer speaking
// length-prefixed frames or an HTTP/1.1 peer. Responses may be written
// by either lane, so writes are serialized per connection; frame order
// between different requests is unconstrained for the socket transport
// (clients match by id), while HTTP admits strictly one dispatched
// request at a time so responses stay in request order.
struct Conn {
  int fd = -1;
  bool http = false;
  int rescan_fd = -1;  // pokes the IO thread after an HTTP response
  std::string client = "anon";  // peer identity (unix: "uid:<uid>")
  std::mutex write_mu;

  // in_buffer (bytes read but not yet parsed, either transport),
  // close_after_response and dead are IO-thread-only; inflight is the
  // HTTP cross-thread gate: set before Dispatch on the IO thread, cleared
  // by whichever lane thread sends the response.
  std::string in_buffer;
  std::atomic<bool> inflight{false};
  bool close_after_response = false;
  bool dead = false;

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }

  // Dispatched-response path (both transports). A dead peer just drops
  // the response.
  void Send(const std::string& payload) {
    std::lock_guard<std::mutex> lock(write_mu);
    if (!http) {
      WriteFrame(fd, payload);
      return;
    }
    HttpWriteAll(fd, FormatHttpResponse(200, "application/json", payload + "\n",
                                        {}, !close_after_response));
    inflight.store(false, std::memory_order_release);
    if (rescan_fd >= 0) {
      char byte = 'r';
      ssize_t ignored = ::write(rescan_fd, &byte, 1);
      (void)ignored;
    }
  }

  // Transport-level HTTP responses (scrapes, 4xx), IO thread only.
  void SendRaw(const std::string& bytes) {
    std::lock_guard<std::mutex> lock(write_mu);
    HttpWriteAll(fd, bytes);
  }
};

enum class Method {
  kPing, kStats, kDebug, kPersist, kLoad, kShutdown, kCompile, kProfile, kTune
};

bool MethodFromName(const std::string& name, Method* method) {
  static const std::pair<const char*, Method> kMethods[] = {
      {"ping", Method::kPing},         {"stats", Method::kStats},
      {"debug", Method::kDebug},       {"persist", Method::kPersist},
      {"load", Method::kLoad},         {"shutdown", Method::kShutdown},
      {"compile", Method::kCompile},   {"profile", Method::kProfile},
      {"tune", Method::kTune}};
  for (const auto& [known, value] : kMethods) {
    if (name == known) {
      *method = value;
      return true;
    }
  }
  return false;
}

// One debug view: GET /debug/<what>?... or the socket `debug` method.
struct DebugQuery {
  std::string what = "requests";  // requests | timeseries | trace | log
  std::optional<size_t> n;        // absent: the view's default
  obs::FlightRecorder::Filter filter;  // requests
  std::string metric;                  // timeseries
};

bool IsDebugView(const std::string& what) {
  return what == "requests" || what == "timeseries" || what == "trace" ||
         what == "log";
}

// A decimal count from a query string; nullopt when empty or not a number.
std::optional<size_t> ParseCount(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  unsigned long long n = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return std::nullopt;
  return static_cast<size_t>(n);
}

// A request decoded once at dispatch. Only the fields its method uses are
// set. Routing adds what its one cache lookup found, so the fast lane
// answers from it without decoding or probing again.
struct Call {
  Method method = Method::kPing;
  schedule::GemmOp op;              // compile, profile, tune
  schedule::ScheduleConfig config;  // compile, profile
  size_t trials = 0;                // tune
  bool warm = true;                 // tune
  bool force = false;               // tune
  std::string path;                 // persist, load
  DebugQuery debug;                 // debug
  std::optional<sim::KernelTiming> cached;    // compile: a timing hit
  std::optional<tuner::StoredTuning> stored;  // tune: a stored search
};

// One request from dispatch to reply. The lanes fill its record in place
// (lane, outcome, batch); Complete adds the timings and retains it.
struct Request {
  std::shared_ptr<Conn> conn;
  Call call;
  obs::RequestRecord record;
  int64_t dequeue_ns = 0;  // lane pickup (trace clock)
};

// A handler's answer: the fields that follow "ok" in the reply, which for
// an error is the one "error" field. Implicit from LogFields, so a handler
// returns its fields directly.
struct Reply {
  Reply(obs::LogFields fields)  // NOLINT(google-explicit-constructor)
      : fields(std::move(fields)) {}
  static Reply Error(const std::string& message) {
    Reply reply(obs::LogFields().Str("error", message));
    reply.ok = false;
    return reply;
  }
  obs::LogFields fields;
  bool ok = true;
};

bool FamilyFromName(const std::string& name, schedule::OpFamily* family) {
  for (schedule::OpFamily f :
       {schedule::OpFamily::kMatmul, schedule::OpFamily::kBatchMatmul,
        schedule::OpFamily::kConv1x1, schedule::OpFamily::kConv3x3}) {
    if (name == schedule::OpFamilyName(f)) {
      *family = f;
      return true;
    }
  }
  return false;
}

// Decodes a JSON number as the integer type T into *out, truncating toward
// zero as a cast does; a non-number decodes as `fallback`, as NumberOr
// does. False when the value is not finite or its truncation does not fit
// T (the cast would be undefined), and for an unsigned T when it is
// negative.
template <typename T>
bool DecodeInteger(const JsonValue& value, T fallback, T* out) {
  double v = value.NumberOr(static_cast<double>(fallback));
  // Both bounds are zero or a power of two, so exact as doubles.
  double lo = static_cast<double>(std::numeric_limits<T>::min());
  double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
  double truncated = std::trunc(v);
  if (!(truncated >= lo && truncated < hi)) return false;  // NaN fails too
  if (std::is_unsigned_v<T> && v < 0) return false;
  *out = static_cast<T>(truncated);
  return true;
}

// {"family":"matmul","batch":1,"m":...,"n":...,"k":...} from the request
// root (fields at top level, matching the CLI's workload flags). Returns
// the error, or "" on success.
std::string ParseOpJson(const JsonValue& root, schedule::GemmOp* op) {
  const JsonValue* family = root.Find("family");
  std::string family_name = family == nullptr ? "matmul" : family->StringOr("");
  if (!FamilyFromName(family_name, &op->family)) {
    return "unknown family \"" + family_name + "\"";
  }
  const JsonValue* m = root.Find("m");
  const JsonValue* n = root.Find("n");
  const JsonValue* k = root.Find("k");
  if (m == nullptr || n == nullptr || k == nullptr) return "op needs m, n, k";
  const JsonValue* batch = root.Find("batch");
  op->batch = 1;
  if (!DecodeInteger(*m, int64_t{0}, &op->m) ||
      !DecodeInteger(*n, int64_t{0}, &op->n) ||
      !DecodeInteger(*k, int64_t{0}, &op->k) ||
      (batch != nullptr && !DecodeInteger(*batch, int64_t{1}, &op->batch))) {
    return "op sizes must be finite and fit 64 bits";
  }
  if (op->m <= 0 || op->n <= 0 || op->k <= 0 || op->batch <= 0) {
    return "op sizes must be positive";
  }
  op->name = std::string(schedule::OpFamilyName(op->family)) + "_" +
             std::to_string(op->m) + "x" + std::to_string(op->n) + "x" +
             std::to_string(op->k);
  return "";
}

// {"tb":[m,n,k],"warp":[m,n,k],"smem":..,"reg":..,...}; only "tb" is
// required, everything else keeps the ScheduleConfig default. Returns the
// error, or "" on success.
std::string ParseConfigJson(const JsonValue& config,
                            schedule::ScheduleConfig* out) {
  auto triple = [&](const char* key, int64_t* a, int64_t* b, int64_t* c,
                    bool required) {
    const JsonValue* v = config.Find(key);
    if (v == nullptr) return !required;
    if (v->kind != JsonValue::Kind::kArray || v->array.size() != 3) {
      return false;
    }
    return DecodeInteger(v->array[0], int64_t{0}, a) &&
           DecodeInteger(v->array[1], int64_t{0}, b) &&
           DecodeInteger(v->array[2], int64_t{0}, c) && *a > 0 && *b > 0 &&
           *c > 0;
  };
  if (!triple("tb", &out->tile.tb_m, &out->tile.tb_n, &out->tile.tb_k,
              /*required=*/true)) {
    return "config needs \"tb\":[m,n,k]";
  }
  // Default warp tile: one warp owning the whole threadblock tile is
  // rarely valid, so default to the tb tile split 2x2 when divisible.
  out->tile.warp_m = out->tile.tb_m % 2 == 0 ? out->tile.tb_m / 2 : out->tile.tb_m;
  out->tile.warp_n = out->tile.tb_n % 2 == 0 ? out->tile.tb_n / 2 : out->tile.tb_n;
  out->tile.warp_k = out->tile.tb_k;
  if (!triple("warp", &out->tile.warp_m, &out->tile.warp_n, &out->tile.warp_k,
              /*required=*/false)) {
    return "\"warp\" must be [m,n,k]";
  }
  for (auto [key, field] : {std::pair{"smem", &out->smem_stages},
                             std::pair{"reg", &out->reg_stages},
                             std::pair{"split_k", &out->split_k},
                             std::pair{"raster", &out->raster_block}}) {
    const JsonValue* v = config.Find(key);
    if (v != nullptr && !DecodeInteger(*v, *field, field)) {
      return std::string("\"") + key + "\" must be finite and fit an int";
    }
  }
  if (const JsonValue* v = config.Find("fusion")) {
    out->inner_fusion = v->BoolOr(out->inner_fusion);
  }
  if (const JsonValue* v = config.Find("swizzle")) {
    out->swizzle = v->BoolOr(out->swizzle);
  }
  if (const JsonValue* v = config.Find("async")) {
    out->async_copies = v->BoolOr(out->async_copies);
  }
  return "";
}

// The socket `debug` method's view and parameters. Returns the error, or
// "" on success.
std::string ParseDebugJson(const JsonValue& root, DebugQuery* query) {
  for (auto [key, field] : {std::pair{"client", &query->filter.client},
                             std::pair{"lane", &query->filter.lane},
                             std::pair{"outcome", &query->filter.outcome},
                             std::pair{"metric", &query->metric}}) {
    if (const JsonValue* v = root.Find(key)) *field = v->StringOr("");
  }
  if (const JsonValue* v = root.Find("n")) {
    uint64_t n = 0;
    if (v->kind != JsonValue::Kind::kNumber) {
      query->n = ParseCount(v->StringOr(""));
    } else if (DecodeInteger(*v, n, &n)) {
      query->n = n;
    } else {
      return "\"n\" must be a finite count";
    }
  }
  const JsonValue* what = root.Find("what");
  if (what != nullptr) query->what = what->StringOr(query->what);
  if (!IsDebugView(query->what)) {
    return "unknown debug view \"" + query->what + "\"";
  }
  return "";
}

// The reply to a compile or profile request: its timing, plus the PMU
// counters when `pmu` is non-null.
obs::LogFields TimingFields(const sim::KernelTiming& t,
                            const sim::KernelPmu* pmu) {
  obs::LogFields fields;
  fields.Bool("feasible", t.feasible);
  if (!t.feasible) {
    fields.Str("reason", t.reason);
  } else {
    fields.Num("cycles", t.cycles)
        .Num("microseconds", t.microseconds)
        .Num("tflops", t.tflops)
        .Int("threadblocks_per_sm", t.threadblocks_per_sm)
        .Int("batches", t.batches);
  }
  if (pmu != nullptr) fields.Raw("pmu", sim::PmuToJson(*pmu));
  return fields;
}

// `[a,b,...]` of `render(item)` for each item.
template <typename Items, typename Render>
std::string JsonArray(const Items& items, Render render) {
  std::string out = "[";
  for (const auto& item : items) {
    if (out.size() > 1) out += ",";
    out += render(item);
  }
  return out + "]";
}

// Client identities become metric label values and access-log fields, so
// they are clamped to a label-safe charset and length before use.
std::string SanitizeClient(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == ':' ||
              c == '-';
    out += ok ? c : '_';
    if (out.size() >= 48) break;
  }
  return out.empty() ? "anon" : out;
}

#ifndef ALCOP_GIT_SHA
#define ALCOP_GIT_SHA "unknown"
#endif
#ifndef ALCOP_BUILD_TYPE
#define ALCOP_BUILD_TYPE "unknown"
#endif

}  // namespace

struct Server::Impl {
  ServerOptions options;

  int listen_fd = -1;
  int http_listen_fd = -1;       // -1 when the HTTP front end is off
  int bound_http_port = -1;      // actual port after bind (0 resolves)
  int wake_pipe[2] = {-1, -1};   // interrupts poll() on Stop
  int rescan_pipe[2] = {-1, -1}; // lane->IO nudge after an HTTP response

  std::thread io_thread;
  std::thread fast_thread;
  std::thread slow_thread;

  std::mutex queue_mu;
  std::condition_variable fast_cv;
  std::condition_variable slow_cv;
  std::deque<Request> fast_queue;
  std::deque<Request> slow_queue;

  std::atomic<bool> stopping{false};
  std::atomic<uint64_t> served{0};
  bool started = false;

  std::mutex stop_mu;
  std::condition_variable stop_cv;

  // Request-lifecycle observability (resolved once in Start, with help
  // text; lanes then update lock-free).
  struct LaneStats {
    obs::Histogram* latency = nullptr;
    obs::Histogram* queue_wait = nullptr;
    obs::Histogram* service = nullptr;
  };
  LaneStats fast_stats;
  LaneStats slow_stats;
  obs::Gauge* inflight_gauge = nullptr;
  obs::Counter* requests_counter = nullptr;
  obs::Counter* fast_counter = nullptr;
  obs::Counter* slow_counter = nullptr;
  obs::Counter* batches_counter = nullptr;
  obs::Counter* http_counter = nullptr;
  obs::Counter* http_bad_counter = nullptr;
  obs::Counter* watchdog_counter = nullptr;
  obs::Counter* warm_starts_counter = nullptr;
  struct LaneWatch {
    obs::Gauge* depth = nullptr;  // serving.queue.depth|lane=...
    obs::Gauge* age = nullptr;    // serving.queue.age.us|lane=...
    bool stalled = false;         // one-shot dump armed while false
  };
  LaneWatch fast_watch;
  LaneWatch slow_watch;
  std::atomic<uint64_t> next_request_id{0};
  std::atomic<uint64_t> next_batch_id{0};
  int64_t start_ns = 0;
  int64_t last_snapshot_ns = 0;  // IO-thread-only
  bool prev_trace_enabled = false;

  std::ofstream access_log;
  std::mutex access_log_mu;

  // Flight recorder + periodic registry snapshots (created in Start from
  // the options; null when disabled).
  std::unique_ptr<obs::FlightRecorder> flight;
  std::unique_ptr<obs::MetricsTimeSeries> timeseries;

  // Per-client attribution: top-K identities get their own labeled
  // series, everyone past the cap shares the "other" slot so label
  // cardinality is bounded by max_clients + 1 regardless of traffic.
  struct ClientStats {
    obs::Counter* requests = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Histogram* fast_latency = nullptr;
    obs::Histogram* slow_latency = nullptr;
  };
  std::mutex clients_mu;
  std::unordered_map<std::string, ClientStats*> clients;
  std::deque<ClientStats> client_storage;  // stable addresses
  ClientStats* other_client = nullptr;     // shared overflow slot

  ClientStats* MakeClientStats(const std::string& label) {
    obs::Registry& registry = obs::Registry::Global();
    client_storage.emplace_back();
    ClientStats& stats = client_storage.back();
    stats.requests = &registry.GetCounter(
        "serving.client.requests|client=" + label,
        "Requests completed, by attributed client (top-K + other).");
    stats.errors = &registry.GetCounter(
        "serving.client.errors|client=" + label,
        "Requests answered with ok=false, by attributed client.");
    stats.bytes = &registry.GetCounter(
        "serving.client.response.bytes|client=" + label,
        "Response payload bytes sent, by attributed client.");
    stats.fast_latency = &registry.GetHistogram(
        "serving.request.latency.us|client=" + label + "|lane=fast",
        "End-to-end request latency in microseconds, by client and lane.");
    stats.slow_latency = &registry.GetHistogram(
        "serving.request.latency.us|client=" + label + "|lane=slow",
        "End-to-end request latency in microseconds, by client and lane.");
    return &stats;
  }

  ClientStats* ClientStatsFor(const std::string& client) {
    std::lock_guard<std::mutex> lock(clients_mu);
    auto it = clients.find(client);
    if (it != clients.end()) return it->second;
    if (clients.size() < options.max_clients) {
      return clients.emplace(client, MakeClientStats(client)).first->second;
    }
    // Past the cap: share the "other" series (and don't memoize, so the
    // identity map stays as bounded as the label space).
    if (other_client == nullptr) other_client = MakeClientStats("other");
    return other_client;
  }

  // ---------------------------------------------------------------------
  // IO thread: accept connections, read frames, classify into lanes.
  // ---------------------------------------------------------------------

  void IoLoop() {
    std::vector<std::shared_ptr<Conn>> conns;
    while (!stopping.load(std::memory_order_relaxed)) {
      std::vector<pollfd> fds;
      fds.push_back({wake_pipe[0], POLLIN, 0});
      fds.push_back({rescan_pipe[0], POLLIN, 0});
      fds.push_back({listen_fd, POLLIN, 0});
      size_t http_slot = 0;
      if (http_listen_fd >= 0) {
        http_slot = fds.size();
        fds.push_back({http_listen_fd, POLLIN, 0});
      }
      size_t base = fds.size();
      for (const auto& conn : conns) fds.push_back({conn->fd, POLLIN, 0});
      if (::poll(fds.data(), fds.size(), MonitorTimeoutMs()) < 0) {
        if (errno == EINTR) continue;
        break;
      }
      MonitorTick(obs::NowNanos());
      if (fds[0].revents != 0) break;  // woken by Stop
      if (fds[1].revents & POLLIN) {
        // A lane finished an HTTP response. Drain the nudge bytes (a
        // short read just means another wakeup, which is harmless), then
        // resume any conns with buffered pipelined requests and close
        // the Connection: close ones.
        char drain[256];
        ssize_t ignored = ::read(rescan_pipe[0], drain, sizeof(drain));
        (void)ignored;
        for (auto& conn : conns) {
          if (!conn->http || conn->dead) continue;
          if (conn->inflight.load(std::memory_order_acquire)) continue;
          if (conn->close_after_response) {
            conn->dead = true;
            continue;
          }
          if (!conn->in_buffer.empty() && !ProcessHttpBuffer(conn)) {
            conn->dead = true;
          }
        }
        SweepDead(&conns);
      }
      if (fds[2].revents & POLLIN) {
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0) {
          auto conn = std::make_shared<Conn>();
          conn->fd = fd;
          // Kernel-verified peer identity: the unix transport attributes
          // by uid unless the request body overrides it ("client" field).
          ucred cred;
          socklen_t cred_len = sizeof(cred);
          if (::getsockopt(fd, SOL_SOCKET, SO_PEERCRED, &cred, &cred_len) ==
              0) {
            conn->client = "uid:" + std::to_string(cred.uid);
          }
          conns.push_back(std::move(conn));
          continue;  // re-poll with the new fd included
        }
      }
      if (http_listen_fd >= 0 && (fds[http_slot].revents & POLLIN) != 0) {
        int fd = ::accept(http_listen_fd, nullptr, nullptr);
        if (fd >= 0) {
          auto conn = std::make_shared<Conn>();
          conn->fd = fd;
          conn->http = true;
          conn->rescan_fd = rescan_pipe[1];
          conns.push_back(std::move(conn));
          continue;
        }
      }
      // Both transports read whatever bytes arrived and parse complete
      // requests from the connection's buffer, so a peer that stalls
      // mid-request never blocks the IO thread.
      for (size_t i = base; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        std::shared_ptr<Conn>& conn = conns[i - base];
        if (conn->dead) continue;
        char buf[65536];
        ssize_t n = ::read(conn->fd, buf, sizeof(buf));
        if (n <= 0) {
          if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
          conn->dead = true;
          continue;
        }
        conn->in_buffer.append(buf, static_cast<size_t>(n));
        if (!conn->http) {
          conn->dead = !ProcessFrames(conn);
        } else if (!conn->inflight.load(std::memory_order_acquire) &&
                   !ProcessHttpBuffer(conn)) {
          conn->dead = true;
        }
      }
      SweepDead(&conns);
    }
  }

  static void SweepDead(std::vector<std::shared_ptr<Conn>>* conns) {
    conns->erase(std::remove_if(conns->begin(), conns->end(),
                                [](const std::shared_ptr<Conn>& conn) {
                                  return conn->dead;
                                }),
                 conns->end());
  }

  // ---------------------------------------------------------------------
  // Watchdog + periodic snapshots (IO thread).
  // ---------------------------------------------------------------------

  // How long poll() may sleep so the monitor still runs: the snapshot
  // interval and a quarter of the stall threshold (clamped to [1ms, 1s])
  // both bound it; -1 (block forever) when both subsystems are off.
  int MonitorTimeoutMs() const {
    int timeout = -1;
    if (timeseries != nullptr && options.snapshot_interval_ms > 0) {
      timeout = options.snapshot_interval_ms;
    }
    if (options.watchdog_stall_ms > 0) {
      int tick = options.watchdog_stall_ms / 4;
      if (tick < 1) tick = 1;
      if (tick > 1000) tick = 1000;
      if (timeout < 0 || tick < timeout) timeout = tick;
    }
    return timeout;
  }

  // Heartbeat: queue-depth/oldest-age gauges per lane, periodic registry
  // snapshot into the time-series ring, and one-shot stall detection.
  // Runs after every poll() return, so its cost is bounded by the poll
  // cadence, not the request rate.
  void MonitorTick(int64_t now_ns) {
    struct LaneReading {
      size_t depth = 0;
      int64_t oldest_ns = 0;  // arrival of the queue front (0 = empty)
    };
    LaneReading fast_reading;
    LaneReading slow_reading;
    bool watch = options.watchdog_stall_ms > 0 || fast_watch.depth != nullptr;
    if (watch) {
      std::lock_guard<std::mutex> lock(queue_mu);
      fast_reading.depth = fast_queue.size();
      if (!fast_queue.empty()) {
        fast_reading.oldest_ns = fast_queue.front().record.arrival_ns;
      }
      slow_reading.depth = slow_queue.size();
      if (!slow_queue.empty()) {
        slow_reading.oldest_ns = slow_queue.front().record.arrival_ns;
      }
    }
    auto tick_lane = [&](const char* name, LaneWatch& lane,
                         const LaneReading& reading) {
      double age_us =
          reading.oldest_ns == 0
              ? 0.0
              : static_cast<double>(now_ns - reading.oldest_ns) / 1e3;
      if (lane.depth != nullptr) {
        lane.depth->Set(static_cast<double>(reading.depth));
        lane.age->Set(age_us);
      }
      if (options.watchdog_stall_ms <= 0) return;
      if (reading.depth == 0) {
        lane.stalled = false;  // drained: re-arm the one-shot dump
        return;
      }
      if (lane.stalled ||
          age_us < static_cast<double>(options.watchdog_stall_ms) * 1e3) {
        return;
      }
      lane.stalled = true;
      watchdog_counter->Increment();
      EmitStallDump(name, age_us, reading.depth);
    };
    tick_lane("fast", fast_watch, fast_reading);
    tick_lane("slow", slow_watch, slow_reading);
    if (timeseries != nullptr && options.snapshot_interval_ms > 0 &&
        now_ns - last_snapshot_ns >=
            static_cast<int64_t>(options.snapshot_interval_ms) * 1000000) {
      last_snapshot_ns = now_ns;
      timeseries->Sample(now_ns, obs::Registry::Global().Snapshot());
    }
  }

  // One-shot diagnostic on a stalled lane: the flight-recorder tail and
  // a flattened metrics snapshot, as one error-level structured-log line
  // (ring-buffered for /debug/log, mirrored to any file sink).
  void EmitStallDump(const char* lane, double age_us, size_t depth) {
    obs::LogFields fields;
    fields.Str("lane", lane)
        .Num("oldest_age_us", age_us)
        .Uint("queue_depth", depth)
        .Num("inflight", inflight_gauge->Value())
        .Uint("requests", served.load(std::memory_order_relaxed));
    if (flight != nullptr) {
      fields.Raw("flight_tail",
                 JsonArray(flight->Snapshot(8), obs::RequestRecordJson));
    }
    obs::LogFields metrics;
    for (const auto& [name, value] :
         obs::FlattenSnapshot(obs::Registry::Global().Snapshot())) {
      metrics.Num(name, value);
    }
    fields.Raw("metrics", metrics.Object());
    obs::Log(obs::LogLevel::kError, "serving",
             std::string("watchdog: ") + lane + " lane stalled", fields);
  }

  // Dispatches every complete frame in the buffer and keeps the partial
  // one. False means the connection should close (an over-sized length
  // prefix).
  bool ProcessFrames(const std::shared_ptr<Conn>& conn) {
    std::string_view buffer = conn->in_buffer;
    std::string payload;
    size_t consumed = 0;
    FrameParseResult result;
    while ((result = ParseFrame(buffer, &payload, &consumed)) ==
           FrameParseResult::kOk) {
      buffer.remove_prefix(consumed);
      Dispatch(conn, payload);
    }
    conn->in_buffer.erase(0, conn->in_buffer.size() - buffer.size());
    return result != FrameParseResult::kBad;
  }

  // Parses as many buffered HTTP requests as the one-inflight gate
  // allows. False means the connection should close (protocol error or
  // a non-keep-alive exchange answered inline).
  bool ProcessHttpBuffer(const std::shared_ptr<Conn>& conn) {
    while (!conn->inflight.load(std::memory_order_acquire)) {
      if (conn->in_buffer.empty()) return true;
      HttpRequest http_request;
      size_t consumed = 0;
      std::string parse_error;
      HttpParseResult result =
          ParseHttpRequest(conn->in_buffer, &http_request, &consumed,
                           &parse_error);
      if (result == HttpParseResult::kNeedMore) return true;
      if (result == HttpParseResult::kBad) {
        http_bad_counter->Increment();
        conn->SendRaw(FormatHttpResponse(400, "text/plain; charset=utf-8",
                                         "bad request: " + parse_error + "\n",
                                         {}, /*keep_alive=*/false));
        return false;
      }
      conn->in_buffer.erase(0, consumed);
      if (!HandleHttp(conn, http_request)) return false;
    }
    return true;
  }

  // Transport-level HTTP routing. GET endpoints are answered inline on
  // the IO thread (they only read the registry, rings and cache stats);
  // POST /v1/<method> rides the same Dispatch path as socket frames,
  // with the URL supplying the method and the X-Alcop-Client header (if
  // any) the attributed identity.
  bool HandleHttp(const std::shared_ptr<Conn>& conn,
                  const HttpRequest& request) {
    http_counter->Increment();
    bool keep = request.keep_alive;
    std::string path;
    std::string query;
    SplitTarget(request.target, &path, &query);
    auto method_not_allowed = [&] {
      conn->SendRaw(FormatHttpResponse(405, "text/plain; charset=utf-8",
                                       "method not allowed\n", {}, keep));
      return keep;
    };
    if (path == "/metrics") {
      if (request.method != "GET") return method_not_allowed();
      conn->SendRaw(FormatHttpResponse(
          200, "text/plain; version=0.0.4; charset=utf-8",
          obs::RenderPrometheus(), {}, keep));
      return keep;
    }
    if (path.rfind("/debug/", 0) == 0 && IsDebugView(path.substr(7))) {
      if (request.method != "GET") return method_not_allowed();
      DebugQuery debug;
      debug.what = path.substr(7);
      std::vector<std::pair<std::string, std::string>> params =
          ParseQuery(query);
      debug.n = ParseCount(QueryParam(params, "n"));
      debug.filter.client = QueryParam(params, "client");
      debug.filter.lane = QueryParam(params, "lane");
      debug.filter.outcome = QueryParam(params, "outcome");
      debug.metric = QueryParam(params, "metric");
      conn->SendRaw(FormatHttpResponse(200, "application/json",
                                       DebugJson(debug) + "\n", {}, keep));
      return keep;
    }
    if (path == "/healthz") {
      if (request.method != "GET") return method_not_allowed();
      sim::SimCacheStats stats = sim::GetSimCacheStats();
      int64_t headroom =
          stats.budget_bytes == 0
              ? -1
              : std::max<int64_t>(0, static_cast<int64_t>(stats.budget_bytes) -
                                         static_cast<int64_t>(
                                             stats.resident_bytes));
      obs::LogFields cache;
      cache.Uint("resident_bytes", stats.resident_bytes)
          .Uint("budget_bytes", stats.budget_bytes)
          .Int("headroom_bytes", headroom);
      obs::LogFields body;
      body.Bool("ok", true)
          .Num("uptime_seconds",
               static_cast<double>(obs::NowNanos() - start_ns) / 1e9)
          .Num("inflight", inflight_gauge->Value())
          .Uint("requests", served.load(std::memory_order_relaxed))
          .Raw("cache", cache.Object());
      conn->SendRaw(FormatHttpResponse(
          200, "application/json", body.Object() + "\n",
          {{"X-Cache-Headroom-Bytes", std::to_string(headroom)}}, keep));
      return keep;
    }
    if (path.rfind("/v1/", 0) == 0) {
      if (request.method != "POST") return method_not_allowed();
      std::string method = path.substr(4);
      conn->close_after_response = !keep;
      conn->inflight.store(true, std::memory_order_release);
      const std::string* client_header = request.FindHeader("X-Alcop-Client");
      Dispatch(conn, request.body.empty() ? "{}" : request.body,
               method.c_str(),
               client_header == nullptr ? nullptr : client_header->c_str());
      return true;
    }
    conn->SendRaw(FormatHttpResponse(404, "text/plain; charset=utf-8",
                                     "not found\n", {}, keep));
    return keep;
  }

  // ---------------------------------------------------------------------
  // Debug introspection (shared by GET /debug/* and the socket `debug`
  // method): renders the retained rings as JSON. Read-only.
  // ---------------------------------------------------------------------

  // One view; `query.what` is one IsDebugView accepts.
  std::string DebugJson(const DebugQuery& query) {
    if (query.what == "requests") {
      // {"requests":[...most recent first...],"total_recorded":N}
      std::vector<obs::RequestRecord> records;
      if (flight != nullptr) {
        records = flight->Snapshot(query.n.value_or(50), query.filter);
      }
      return obs::LogFields()
          .Raw("requests", JsonArray(records, obs::RequestRecordJson))
          .Uint("total_recorded",
                flight == nullptr ? 0 : flight->total_recorded())
          .Object();
    }
    if (query.what == "timeseries") {
      // Without a metric: the list of sampled names. With one: up to n
      // most recent points, oldest first.
      if (query.metric.empty()) {
        std::vector<std::string> names;
        if (timeseries != nullptr) names = timeseries->Names();
        return obs::LogFields()
            .Raw("metrics", JsonArray(names,
                                      [](const std::string& name) {
                                        return "\"" + JsonEscape(name) + "\"";
                                      }))
            .Uint("samples", timeseries == nullptr ? 0 : timeseries->samples())
            .Object();
      }
      std::vector<obs::MetricsTimeSeries::Point> points;
      if (timeseries != nullptr) points = timeseries->Series(query.metric);
      size_t keep = std::min(points.size(), query.n.value_or(600));
      points.erase(points.begin(),
                   points.end() - static_cast<ptrdiff_t>(keep));
      auto point = [](const obs::MetricsTimeSeries::Point& p) {
        return obs::LogFields()
            .Int("t_ns", p.t_ns)
            .Num("value", p.value)
            .Object();
      };
      return obs::LogFields()
          .Str("metric", query.metric)
          .Raw("points", JsonArray(points, point))
          .Object();
    }
    if (query.what == "trace") {
      // Drains the span rings as a Chrome/Perfetto trace snapshot.
      obs::ChromeTraceWriter writer;
      obs::AppendHostSpans(&writer, obs::CollectTraceSpans());
      std::string json = writer.ToJson();
      obs::ClearTrace();
      return json;
    }
    // {"lines":[...oldest first...],"total":N}; each line is a JSON object.
    obs::StructuredLog& log = obs::StructuredLog::Global();
    return obs::LogFields()
        .Raw("lines", JsonArray(log.Recent(query.n.value_or(100)),
                                [](const std::string& line) { return line; }))
        .Uint("total", log.total_lines())
        .Object();
  }

  // ---------------------------------------------------------------------
  // Dispatch: decode once, route with one lookup, answer decode errors.
  // ---------------------------------------------------------------------

  void Dispatch(const std::shared_ptr<Conn>& conn, const std::string& payload,
                const char* method_override = nullptr,
                const char* client_override = nullptr) {
    Request request;
    request.conn = conn;
    obs::RequestRecord& rec = request.record;
    rec.id = next_request_id.fetch_add(1, std::memory_order_relaxed) + 1;
    rec.arrival_ns = obs::NowNanos();
    rec.transport = conn->http ? "http" : "unix";
    rec.client = conn->client;
    rec.lane = "fast";
    rec.outcome = "ok";
    inflight_gauge->Add(1.0);
    std::string error = Decode(payload, method_override, &request);
    // Attribution priority: transport-verified header > self-declared
    // body field (Decode) > connection default (peer uid / "anon").
    if (client_override != nullptr) {
      rec.client = SanitizeClient(client_override);
    }
    if (!error.empty()) {
      request.dequeue_ns = rec.arrival_ns;
      Complete(request, Reply::Error(error));
      return;
    }
    bool fast = Route(&request.call);
    std::lock_guard<std::mutex> lock(queue_mu);
    if (fast) {
      fast_queue.push_back(std::move(request));
      fast_cv.notify_one();
    } else {
      request.record.lane = "slow";
      slow_queue.push_back(std::move(request));
      slow_cv.notify_one();
    }
  }

  // Decodes `payload` into the request's record (method, client, id,
  // op_key) and call. Returns the error to answer at dispatch, or "".
  std::string Decode(const std::string& payload, const char* method_override,
                     Request* request) const {
    std::optional<JsonValue> parsed = ParseJson(payload);
    if (!parsed.has_value()) return "malformed JSON";
    const JsonValue& body = *parsed;
    obs::RequestRecord& rec = request->record;
    Call& call = request->call;
    const JsonValue* method = body.Find("method");
    rec.method = method_override != nullptr ? method_override
                 : method == nullptr        ? ""
                                            : method->StringOr("");
    if (const JsonValue* c = body.Find("client")) {
      const std::string& declared = c->StringOr("");
      if (!declared.empty()) rec.client = SanitizeClient(declared);
    }
    const JsonValue* id = body.Find("id");
    if (id != nullptr && !DecodeInteger(*id, int64_t{0}, &rec.client_id)) {
      return "\"id\" must be finite and fit 64 bits";
    }
    if (!MethodFromName(rec.method, &call.method)) {
      return "unknown method \"" + rec.method + "\"";
    }
    switch (call.method) {
      case Method::kDebug:
        return ParseDebugJson(body, &call.debug);
      case Method::kPersist:
      case Method::kLoad:
        call.path = options.cache_path;
        if (const JsonValue* p = body.Find("path")) {
          call.path = p->StringOr(call.path);
        }
        if (call.path.empty()) call.path = DefaultCachePath();
        return "";
      case Method::kCompile:
      case Method::kProfile:
      case Method::kTune:
        break;
      default:
        return "";
    }
    if (std::string err = ParseOpJson(body, &call.op); !err.empty()) {
      return err;
    }
    rec.op_key = call.op.name;
    if (call.method == Method::kTune) {
      // A stored answer ignores "trials" but still rejects a bad one, so
      // validity does not depend on the lane.
      call.trials = options.default_trials;
      const JsonValue* trials = body.Find("trials");
      if (trials != nullptr &&
          !DecodeInteger(*trials, call.trials, &call.trials)) {
        return "\"trials\" must be finite, non-negative and fit 64 bits";
      }
      const JsonValue* warm = body.Find("warm");
      call.warm = warm == nullptr ? options.warm_start
                                  : warm->BoolOr(options.warm_start);
      const JsonValue* force = body.Find("force");
      call.force = force != nullptr && force->BoolOr(false);
      return "";
    }
    const JsonValue* config = body.Find("config");
    if (config == nullptr) return rec.method + " needs a \"config\" object";
    return ParseConfigJson(*config, &call.config);
  }

  // Routing, with the request's one cache lookup: a compile whose timing
  // is cached and a tune whose exact op_key is stored go to the fast lane
  // carrying what the lookup found; anything that must compile or search
  // goes to the slow lane. Never compiles.
  bool Route(Call* call) const {
    switch (call->method) {
      case Method::kCompile: {
        sim::KernelTiming timing;
        if (!sim::ProbeCachedTiming(call->op, call->config, options.spec,
                                    schedule::InlineOrder::kAfterPipelining,
                                    &timing)) {
          return false;
        }
        call->cached = std::move(timing);
        return true;
      }
      case Method::kProfile:
        return false;
      case Method::kTune:
        if (!call->force) {
          call->stored =
              tuner::TuningStore::Global().Get(tuner::OpKey(call->op));
        }
        return call->stored.has_value();
      default:
        return true;
    }
  }

  // Finishes one request: writes the {"id":..,"ok":..} envelope around
  // the reply's fields, marks an error outcome, then does the latency
  // histograms, completion-time counters, queue-wait/lane spans and its
  // one RequestRecord — retained by the flight recorder and written as the
  // access-log line — then the response send, so a stats snapshot or
  // scrape taken after the client sees the reply always includes it, and
  // in-flight work is visible as the gap between serving.inflight and
  // serving.requests.
  void Complete(Request& request, const Reply& reply) {
    obs::RequestRecord& rec = request.record;
    const std::string payload = "{\"id\":" + std::to_string(rec.client_id) +
                                ",\"ok\":" + (reply.ok ? "true" : "false") +
                                reply.fields.Json() + "}";
    if (!reply.ok) rec.outcome = "error";
    int64_t end_ns = obs::NowNanos();
    bool fast = rec.lane == "fast";
    rec.queue_us =
        static_cast<double>(request.dequeue_ns - rec.arrival_ns) / 1e3;
    rec.service_us = static_cast<double>(end_ns - request.dequeue_ns) / 1e3;
    rec.total_us = rec.queue_us + rec.service_us;
    LaneStats& lane = fast ? fast_stats : slow_stats;
    lane.queue_wait->Observe(rec.queue_us);
    lane.service->Observe(rec.service_us);
    lane.latency->Observe(rec.total_us);
    (fast ? fast_counter : slow_counter)->Increment();
    requests_counter->Increment();
    if (options.client_metrics) {
      ClientStats* client = ClientStatsFor(rec.client);
      client->requests->Increment();
      if (!reply.ok) client->errors->Increment();
      client->bytes->Add(payload.size());
      (fast ? client->fast_latency : client->slow_latency)
          ->Observe(rec.total_us);
    }
    inflight_gauge->Add(-1.0);
    served.fetch_add(1, std::memory_order_relaxed);
    obs::RecordSpan("serving.queue_wait", "serving", rec.arrival_ns,
                    request.dequeue_ns);
    obs::RecordSpan(fast ? "serving.request.fast" : "serving.request.slow",
                    "serving", rec.arrival_ns, end_ns);
    if (flight != nullptr) flight->Record(rec);
    if (access_log.is_open()) {
      std::string line = obs::RequestRecordJson(rec) + "\n";
      std::lock_guard<std::mutex> lock(access_log_mu);
      access_log << line;
      access_log.flush();
    }
    request.conn->Send(payload);
  }

  // ---------------------------------------------------------------------
  // Lanes.
  // ---------------------------------------------------------------------

  void FastLoop() {
    while (true) {
      Request request;
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        fast_cv.wait(lock, [&] {
          return stopping.load(std::memory_order_relaxed) ||
                 !fast_queue.empty();
        });
        if (fast_queue.empty()) return;  // stopping and drained
        request = std::move(fast_queue.front());
        fast_queue.pop_front();
      }
      request.dequeue_ns = obs::NowNanos();
      Complete(request, Handle(request));
      if (request.call.method == Method::kShutdown) {
        RequestStop();
        return;
      }
    }
  }

  void SlowLoop() {
    while (true) {
      std::vector<Request> batch;
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        slow_cv.wait(lock, [&] {
          return stopping.load(std::memory_order_relaxed) ||
                 !slow_queue.empty();
        });
        if (slow_queue.empty()) return;  // stopping and drained
        while (!slow_queue.empty()) {
          batch.push_back(std::move(slow_queue.front()));
          slow_queue.pop_front();
        }
      }
      uint64_t batch_id =
          next_batch_id.fetch_add(1, std::memory_order_relaxed) + 1;
      batches_counter->Increment();
      int64_t batch_start_ns = obs::NowNanos();
      // Searches go last: a compile never waits behind a tune that
      // arrived in the same round.
      std::stable_partition(batch.begin(), batch.end(),
                            [](const Request& request) {
                              return request.call.method != Method::kTune;
                            });
      for (Request& request : batch) {
        // Picked up now, not at the round start: waiting behind earlier
        // requests of the round is queue time, not service time.
        request.dequeue_ns = obs::NowNanos();
        request.record.batch = batch_id;
        Complete(request, Handle(request));
      }
      obs::RecordSpan("serving.batch", "serving", batch_start_ns,
                      obs::NowNanos());
    }
  }

  // ---------------------------------------------------------------------
  // Handlers, for both lanes: each returns only its own reply fields and
  // sets the cache outcome it knows.
  // ---------------------------------------------------------------------

  Reply Handle(Request& request) {
    const Call& call = request.call;
    std::string& outcome = request.record.outcome;
    switch (call.method) {
      case Method::kPing:
        return obs::LogFields().Bool("pong", true);
      case Method::kShutdown:
        return obs::LogFields().Bool("stopping", true);
      case Method::kStats:
        return Stats();
      case Method::kDebug:
        return obs::LogFields()
            .Str("what", call.debug.what)
            .Raw("result", DebugJson(call.debug));
      case Method::kPersist:
      case Method::kLoad:
        return Persist(call);
      case Method::kCompile:
        if (call.cached.has_value()) {
          outcome = "hit";
          return TimingFields(*call.cached, nullptr);
        }
        outcome = "compiled";
        return TimingFields(
            sim::CachedCompileAndSimulate(call.op, call.config, options.spec),
            nullptr);
      case Method::kProfile:
        outcome = "compiled";
        return Profile(call);
      case Method::kTune:
        if (call.stored.has_value()) {
          outcome = "stored";
          return StoredTune(*call.stored);
        }
        outcome = "search";
        return Tune(call);
    }
    return Reply::Error("unhandled method");
  }

  // Per-lane latency summary from the request histograms: the socket
  // `stats` method and `cache stats --json` surface the same numbers an
  // HTTP scraper computes from the exposition buckets.
  static std::string LaneLatencyJson(const LaneStats& stats) {
    obs::HistogramData data = stats.latency->Data();
    return obs::LogFields()
        .Uint("count", data.count)
        .Num("mean_us", data.count == 0
                            ? 0.0
                            : data.sum / static_cast<double>(data.count))
        .Num("p50_us", obs::HistogramQuantile(data, 0.5))
        .Num("p99_us", obs::HistogramQuantile(data, 0.99))
        .Num("p999_us", obs::HistogramQuantile(data, 0.999))
        .Num("max_us", data.max)
        .Object();
  }

  Reply Stats() {
    sim::SimCacheStats stats = sim::GetSimCacheStats();
    obs::LogFields latency;
    latency.Raw("fast", LaneLatencyJson(fast_stats))
        .Raw("slow", LaneLatencyJson(slow_stats));
    return obs::LogFields()
        .Uint("timing_hits", stats.hits)
        .Uint("timing_misses", stats.misses)
        .Uint("timing_entries", stats.entries)
        .Uint("resident_bytes", stats.resident_bytes)
        .Uint("budget_bytes", stats.budget_bytes)
        .Uint("evictions", stats.evictions)
        .Uint("disk_hits", stats.disk_hits)
        .Uint("disk_misses", stats.disk_misses)
        .Uint("disk_load_bytes", stats.disk_load_bytes)
        .Uint("stored_tunings", tuner::TuningStore::Global().Size())
        .Uint("requests", served.load(std::memory_order_relaxed))
        .Num("inflight", inflight_gauge->Value())
        .Raw("latency", latency.Object());
  }

  Reply Persist(const Call& call) {
    PersistStats stats = call.method == Method::kPersist
                             ? SaveCache(call.path, options.spec)
                             : LoadCache(call.path, options.spec);
    if (!stats.ok) return Reply::Error(stats.error);
    return obs::LogFields()
        .Str("path", call.path)
        .Uint("bytes", stats.bytes)
        .Uint("timings", stats.timings)
        .Uint("tunings", stats.tunings)
        .Uint("skipped", stats.skipped);
  }

  // `profile`: one compile and one replay with counters on. Its timing
  // also warms the sim cache, so a later compile of the same triple is a
  // fast-lane hit.
  Reply Profile(const Call& call) {
    sim::ReplayArena arena;
    sim::KernelPmu pmu;
    sim::KernelTiming timing = sim::ReplaySimProgram(
        sim::CompileSimProgram(call.op, call.config, options.spec), &arena,
        &pmu);
    sim::InsertCachedTiming(
        sim::SimCacheKey(call.op, call.config, options.spec,
                         schedule::InlineOrder::kAfterPipelining),
        timing);
    return TimingFields(timing, timing.feasible ? &pmu : nullptr);
  }

  // Warm-restart tune: the store already held a finished search for this
  // exact op_key when the request was routed; answer from it.
  static Reply StoredTune(const tuner::StoredTuning& stored) {
    std::optional<tuner::StoredTrial> best = stored.Best();
    if (!best.has_value()) {
      return Reply::Error("stored tuning has no feasible trial");
    }
    return obs::LogFields()
        .Str("op_key", stored.op_key)
        .Str("source", "store")
        .Str("best_config", best->config.ToString())
        .Num("best_cycles", best->cycles)
        .Uint("trials", stored.trials.size());
  }

  Reply Tune(const Call& call) {
    tuner::TuningTask task =
        tuner::MakeSimulatorTask(call.op, options.spec, options.space);
    if (task.space.empty()) return Reply::Error("empty schedule space for op");
    tuner::XgbOptions xgb;
    xgb.pretrain_with_analytical = true;
    xgb.seed = options.seed;
    tuner::WarmStart warm_start;
    if (call.warm) {
      warm_start = tuner::FindWarmStart(task, tuner::TuningStore::Global());
      xgb.warm_seeds = warm_start.seeds;
      if (!warm_start.seeds.empty()) warm_starts_counter->Increment();
    }
    tuner::TuningResult result = tuner::XgbTuner(task, call.trials, xgb);
    tuner::StoreTuning(task, result, tuner::TuningStore::Global());
    size_t best = result.BestIndex(task);
    if (best >= task.space.size()) {
      return Reply::Error("no feasible schedule found");
    }
    return obs::LogFields()
        .Str("op_key", tuner::OpKey(call.op))
        .Str("source", "search")
        .Str("best_config", task.space[best].ToString())
        .Num("best_cycles", result.BestInFirstK(result.trials.size()))
        .Uint("trials", result.trials.size())
        .Str("warm_source", warm_start.source_op_key)
        .Uint("warm_seeds", warm_start.seeds.size());
  }

  // ---------------------------------------------------------------------
  // Lifecycle.
  // ---------------------------------------------------------------------

  // Resolves every serving.* metric once, attaching # HELP metadata at
  // the registration site; the request path then updates them lock-free.
  void RegisterMetrics() {
    obs::Registry& registry = obs::Registry::Global();
    auto lane = [&registry](const char* name) {
      LaneStats stats;
      std::string label = std::string("|lane=") + name;
      stats.latency = &registry.GetHistogram(
          "serving.request.latency.us" + label,
          "End-to-end request latency in microseconds (queue wait + "
          "service), by lane.");
      stats.queue_wait = &registry.GetHistogram(
          "serving.request.queue_wait.us" + label,
          "Time from dispatch to lane pickup in microseconds, by lane.");
      stats.service = &registry.GetHistogram(
          "serving.request.service.us" + label,
          "Handler time from lane pickup to response in microseconds, by "
          "lane.");
      return stats;
    };
    fast_stats = lane("fast");
    slow_stats = lane("slow");
    inflight_gauge = &registry.GetGauge(
        "serving.inflight",
        "Requests dispatched but not yet answered (both lanes).");
    requests_counter = &registry.GetCounter(
        "serving.requests", "Requests completed across both lanes.");
    fast_counter = &registry.GetCounter(
        "serving.fast_lane", "Requests completed on the fast lane.");
    slow_counter = &registry.GetCounter(
        "serving.slow_lane", "Requests completed on the slow lane.");
    batches_counter = &registry.GetCounter(
        "serving.batches", "Slow-lane drain rounds.");
    http_counter = &registry.GetCounter(
        "serving.http.requests",
        "HTTP requests parsed, including /metrics and /healthz.");
    http_bad_counter = &registry.GetCounter(
        "serving.http.bad_requests",
        "HTTP requests rejected with 400 (malformed or over limits).");
    warm_starts_counter = &registry.GetCounter(
        "serving.warm_starts", "Tune searches seeded from a stored neighbor.");
    watchdog_counter = &registry.GetCounter(
        "serving.watchdog.stalls",
        "Stalled-lane detections (oldest queued request older than the "
        "watchdog threshold; one per stall episode).");
    auto watch = [&registry](const char* name) {
      LaneWatch watch;
      std::string label = std::string("|lane=") + name;
      watch.depth = &registry.GetGauge(
          "serving.queue.depth" + label,
          "Requests waiting in the lane queue (watchdog heartbeat).");
      watch.age = &registry.GetGauge(
          "serving.queue.age.us" + label,
          "Age in microseconds of the oldest queued request (0 when the "
          "queue is empty; watchdog heartbeat).");
      return watch;
    };
    fast_watch = watch("fast");
    slow_watch = watch("slow");
    // Build identity as a constant-1 gauge whose labels carry the facts,
    // so every scrape and bench artifact is self-identifying.
    char fingerprint[24];
    std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                  static_cast<unsigned long long>(
                      SpecFingerprint(options.spec)));
    registry
        .GetGauge(std::string("build.info|git_sha=") + ALCOP_GIT_SHA +
                      "|build_type=" + ALCOP_BUILD_TYPE +
                      "|spec_fingerprint=" + fingerprint,
                  "Build identity (value is always 1; the labels carry the "
                  "git SHA, build type and GPU spec fingerprint).")
        .Set(1.0);
  }

  void RequestStop() {
    if (stopping.exchange(true)) return;
    // Wake the poll loop and both lanes.
    if (wake_pipe[1] >= 0) {
      char byte = 'x';
      ssize_t ignored = ::write(wake_pipe[1], &byte, 1);
      (void)ignored;
    }
    fast_cv.notify_all();
    slow_cv.notify_all();
    std::lock_guard<std::mutex> lock(stop_mu);
    stop_cv.notify_all();
  }
};

Server::Server(ServerOptions options) : impl_(std::make_unique<Impl>()) {
  impl_->options = std::move(options);
  if (impl_->options.cache_path.empty()) {
    impl_->options.cache_path = DefaultCachePath();
  }
}

Server::~Server() { Stop(); }

bool Server::Start(std::string* error) {
  Impl& impl = *impl_;
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (impl.started) return fail("already started");
  if (impl.options.socket_path.empty()) return fail("empty socket path");

  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (impl.options.socket_path.size() >= sizeof(addr.sun_path)) {
    return fail("socket path too long for AF_UNIX");
  }
  std::strncpy(addr.sun_path, impl.options.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  // A dead peer mid-write must not kill the daemon.
  ::signal(SIGPIPE, SIG_IGN);

  impl.listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (impl.listen_fd < 0) return fail("socket() failed");
  ::unlink(impl.options.socket_path.c_str());  // stale socket from a crash
  if (::bind(impl.listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    ::close(impl.listen_fd);
    impl.listen_fd = -1;
    return fail("bind(" + impl.options.socket_path + ") failed");
  }
  if (::listen(impl.listen_fd, 64) < 0) {
    ::close(impl.listen_fd);
    impl.listen_fd = -1;
    return fail("listen() failed");
  }
  if (::pipe(impl.wake_pipe) < 0) {
    ::close(impl.listen_fd);
    impl.listen_fd = -1;
    return fail("pipe() failed");
  }
  auto close_fds = [&impl] {
    ::close(impl.listen_fd);
    impl.listen_fd = -1;
    for (int& fd : impl.wake_pipe) {
      ::close(fd);
      fd = -1;
    }
    for (int& fd : impl.rescan_pipe) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    if (impl.http_listen_fd >= 0) {
      ::close(impl.http_listen_fd);
      impl.http_listen_fd = -1;
    }
  };
  if (::pipe(impl.rescan_pipe) < 0) {
    close_fds();
    return fail("pipe() failed");
  }

  // HTTP front end (loopback only): /metrics, /healthz, POST /v1/*.
  if (impl.options.http_port >= 0) {
    impl.http_listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (impl.http_listen_fd < 0) {
      close_fds();
      return fail("http socket() failed");
    }
    int one = 1;
    ::setsockopt(impl.http_listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in http_addr;
    std::memset(&http_addr, 0, sizeof(http_addr));
    http_addr.sin_family = AF_INET;
    http_addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    http_addr.sin_port = htons(static_cast<uint16_t>(impl.options.http_port));
    if (::bind(impl.http_listen_fd, reinterpret_cast<sockaddr*>(&http_addr),
               sizeof(http_addr)) < 0 ||
        ::listen(impl.http_listen_fd, 64) < 0) {
      close_fds();
      return fail("http bind(127.0.0.1:" +
                  std::to_string(impl.options.http_port) + ") failed");
    }
    socklen_t addr_len = sizeof(http_addr);
    if (::getsockname(impl.http_listen_fd,
                      reinterpret_cast<sockaddr*>(&http_addr),
                      &addr_len) == 0) {
      impl.bound_http_port = ntohs(http_addr.sin_port);
    }
  }

  if (!impl.options.access_log_path.empty()) {
    impl.access_log.open(impl.options.access_log_path,
                         std::ios::out | std::ios::app);
    if (!impl.access_log.is_open()) {
      close_fds();
      return fail("cannot open access log " + impl.options.access_log_path);
    }
  }

  impl.RegisterMetrics();
  impl.start_ns = obs::NowNanos();
  if (impl.options.flight_depth > 0) {
    impl.flight =
        std::make_unique<obs::FlightRecorder>(impl.options.flight_depth);
  }
  if (impl.options.snapshot_depth > 0 && impl.options.snapshot_interval_ms > 0) {
    impl.timeseries =
        std::make_unique<obs::MetricsTimeSeries>(impl.options.snapshot_depth);
  }
  // /debug/trace drains the span rings, so spans must be recorded while
  // the daemon runs; the previous switch state is restored at Stop.
  impl.prev_trace_enabled = obs::TraceEnabled();
  obs::SetTraceEnabled(true);

  // Warm-start the process from the persisted cache when one matches.
  if (!impl.options.cache_path.empty()) {
    PersistStats loaded = LoadCache(impl.options.cache_path,
                                    impl.options.spec);  // best-effort
    obs::Log(obs::LogLevel::kInfo, "serving", "cache load",
             obs::LogFields()
                 .Str("path", impl.options.cache_path)
                 .Bool("ok", loaded.ok)
                 .Uint("bytes", loaded.ok ? loaded.bytes : 0));
  }

  impl.io_thread = std::thread([&impl] { impl.IoLoop(); });
  impl.fast_thread = std::thread([&impl] { impl.FastLoop(); });
  impl.slow_thread = std::thread([&impl] { impl.SlowLoop(); });
  impl.started = true;
  obs::Log(obs::LogLevel::kInfo, "serving", "started",
           obs::LogFields()
               .Str("socket", impl.options.socket_path)
               .Int("http_port", impl.http_listen_fd >= 0
                                     ? impl.bound_http_port
                                     : -1)
               .Uint("flight_depth", impl.options.flight_depth)
               .Int("watchdog_stall_ms", impl.options.watchdog_stall_ms));
  return true;
}

void Server::Wait() {
  Impl& impl = *impl_;
  std::unique_lock<std::mutex> lock(impl.stop_mu);
  impl.stop_cv.wait(
      lock, [&impl] { return impl.stopping.load(std::memory_order_relaxed); });
}

void Server::Stop() {
  Impl& impl = *impl_;
  if (!impl.started) return;
  impl.RequestStop();
  if (impl.io_thread.joinable()) impl.io_thread.join();
  if (impl.fast_thread.joinable()) impl.fast_thread.join();
  if (impl.slow_thread.joinable()) impl.slow_thread.join();
  if (impl.listen_fd >= 0) {
    ::close(impl.listen_fd);
    impl.listen_fd = -1;
  }
  if (impl.http_listen_fd >= 0) {
    ::close(impl.http_listen_fd);
    impl.http_listen_fd = -1;
  }
  for (int& fd : impl.wake_pipe) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  for (int& fd : impl.rescan_pipe) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  if (impl.access_log.is_open()) impl.access_log.close();
  ::unlink(impl.options.socket_path.c_str());
  if (impl.options.persist_on_shutdown && !impl.options.cache_path.empty()) {
    PersistStats saved =
        SaveCache(impl.options.cache_path, impl.options.spec);  // best-effort
    obs::Log(obs::LogLevel::kInfo, "serving", "cache save",
             obs::LogFields()
                 .Str("path", impl.options.cache_path)
                 .Bool("ok", saved.ok)
                 .Uint("bytes", saved.ok ? saved.bytes : 0));
  }
  obs::SetTraceEnabled(impl.prev_trace_enabled);
  obs::Log(obs::LogLevel::kInfo, "serving", "stopped",
           obs::LogFields().Uint(
               "requests", impl.served.load(std::memory_order_relaxed)));
  impl.started = false;
}

const ServerOptions& Server::options() const { return impl_->options; }

uint64_t Server::requests_served() const {
  return impl_->served.load(std::memory_order_relaxed);
}

int Server::http_port() const {
  return impl_->http_listen_fd >= 0 ? impl_->bound_http_port : -1;
}

}  // namespace serving
}  // namespace alcop
