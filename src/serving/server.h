// alcopd: the long-lived compile/tune daemon behind tuning-as-a-service.
//
// One process owns the warm state — the sim cache of measured timings,
// the TuningStore, and the persisted on-disk cache — and many clients
// share it over a unix-domain socket speaking the length-prefixed JSON
// protocol (serving/protocol.h). The IO thread
// decodes each request once, at dispatch, into a typed call (method, op,
// config, tune options, persist path or debug query) and answers any
// decode error there — malformed JSON, an unknown method, a bad field —
// without queueing it (its record says lane "fast" with no queue wait).
// Routing then makes the request's one cache lookup
// (ProbeCachedTiming for a compile, TuningStore::Get for a tune), and the
// request carries what it found to one of two lanes, so a multi-second
// cold tune can never sit in front of a microsecond cache hit. The
// daemon runs two threads, one per lane:
//
//   fast lane: the IO thread itself, right after routing, for
//     ping/stats/debug/shutdown, compile requests whose timing the probe
//     found, and tune requests whose exact op_key is in the TuningStore
//     (the warm-restart path). It answers from the carried timing or
//     stored tuning without looking again, and with no hand-off to
//     another thread, so hot-shape latency is the IO thread's own work,
//     never whatever the slow lane is chewing on. Replies are sent
//     without blocking: what the socket does not take waits in the
//     connection's output queue, and the IO thread parses nothing more
//     from that connection until poll reports it writable, while it
//     keeps reading its input and serving every other client. So a
//     client that stops reading stalls only itself; neither its queued
//     replies nor its unparsed input are capped yet (ROADMAP).
//
//   slow lane: everything that must compile or search, and persist/load,
//     which read or write the whole cache on disk. Its one queue is the
//     daemon's only queue. The worker drains it each round and answers
//     it in order, searches last.
//     A compile goes through CachedCompileAndSimulate; a profile
//     compiles the kernel and runs the reference interpreter once with
//     counters on. Both warm the sim cache, so the next identical
//     compile is a fast-lane hit. Cold tunes run the
//     XgbTuner (analytical pretrain + warm_seeds from the nearest stored
//     shape via tuner/transfer.h) and store their result for the next
//     neighbor. It never writes to a socket: it hands each reply to the
//     IO thread, which sends it through the same output queues, so a
//     client that stops reading stalls neither the slow lane nor anyone
//     else. The IO thread alone owns each connection; Stop sends the
//     replies the slow lane finishes after the IO thread has exited.
//
// Handlers return only their own reply fields. Complete alone writes the
// {"id":..,"ok":..} envelope around them (with obs::LogFields, the
// structured log's field writer) and marks an error outcome, then
// finishes the request's one RequestRecord, which the lanes filled in
// place.
//
// Observability (per-request, not just global counters): every request
// gets a monotonic id at dispatch, queue-wait and lane spans in the
// ring-buffer tracer, per-lane latency histograms
// (serving.request.latency.us|lane=fast/slow, with queue_wait + service
// components that sum to the total; a fast-lane request's queue wait is
// its decode and routing), a serving.inflight gauge, and one
// RequestRecord per request, kept by the flight recorder and written as
// the optional JSONL access log. An optional HTTP front end on the same IO
// thread exposes GET /metrics (Prometheus text exposition), GET
// /healthz, and POST /v1/<method> sharing the socket dispatch path.
//
// Startup loads the persisted cache if one matches this spec; shutdown
// saves it — so the daemon's lifetime, not the process's, is the unit of
// amortization the ROADMAP's serving axis asks for.
#ifndef ALCOP_SERVING_SERVER_H_
#define ALCOP_SERVING_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "target/gpu_spec.h"
#include "tuner/space.h"

namespace alcop {
namespace serving {

struct ServerOptions {
  std::string socket_path;
  target::GpuSpec spec;
  // Search defaults for `tune` requests that do not override them.
  size_t default_trials = 32;
  tuner::SpaceOptions space;
  bool warm_start = true;  // seed searches from the TuningStore
  uint64_t seed = 0;       // XgbTuner seed (deterministic service)
  // On-disk cache: loaded (if compatible) at Start, saved at Stop.
  // Empty = DefaultCachePath() ($ALCOP_CACHE_DIR); if that is also empty,
  // persistence is disabled.
  std::string cache_path;
  bool persist_on_shutdown = true;
  // HTTP front end on 127.0.0.1 beside the unix socket: -1 = disabled,
  // 0 = ephemeral (the bound port is readable via http_port()), >0 =
  // fixed port. Serves GET /metrics (Prometheus exposition of the obs
  // registry), GET /healthz, and POST /v1/<method> carrying the same
  // JSON payloads as the socket protocol.
  int http_port = -1;
  // JSONL access log: one obs::RequestRecordJson line per completed
  // request (request id, attributed client, client_id, method, op_key,
  // lane, cache outcome, queue/service/total micros). Empty = no access
  // log.
  std::string access_log_path;
  // Flight recorder: ring of the last N completed request records,
  // served by GET /debug/requests and the socket `debug` method. 0
  // disables retention.
  size_t flight_depth = 512;
  // Periodic registry snapshots for GET /debug/timeseries: every
  // `snapshot_interval_ms` the IO thread samples the registry into a
  // ring of the last 120 flattened snapshots. <= 0 disables sampling.
  int snapshot_interval_ms = 1000;
  // Watchdog: when the oldest request in the slow lane's queue has
  // waited more than this, emit a one-shot diagnostic dump (flight tail +
  // metrics) to the structured log and bump serving.watchdog.stalls.
  // Re-arms when the queue drains. <= 0 disables the watchdog.
  int watchdog_stall_ms = 10000;
  // Per-client metrics. A request's identity is the X-Alcop-Client header
  // (HTTP), else a "client" body field, else the connection's own: the
  // peer uid on the unix socket, "anon" on HTTP. The first 16 distinct
  // identities get their own labeled series; later ones share the
  // `other` series, so cardinality stays bounded.
  bool client_metrics = true;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();  // calls Stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds the socket and starts the IO thread (also the fast lane) and
  // the slow lane's thread. False (with `error` filled) if the path is
  // unusable.
  bool Start(std::string* error = nullptr);

  // Blocks until a shutdown request arrives (or Stop is called).
  void Wait();

  // Stops the daemon: closes the socket, drains the slow lane, joins the
  // threads, sends the slow lane's replies the IO thread did not, and
  // persists the cache (per options). Idempotent.
  void Stop();

  const ServerOptions& options() const;
  uint64_t requests_served() const;

  // Actual bound HTTP port (resolves options.http_port == 0 to the
  // kernel-assigned port); -1 when the HTTP front end is disabled.
  int http_port() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace serving
}  // namespace alcop

#endif  // ALCOP_SERVING_SERVER_H_
