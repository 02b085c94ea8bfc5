// Tests of the flight-recorder/debug-surface stack (src/obs/flight.h,
// src/obs/log.h and the alcopd wiring in serving/server.cc): the request
// ring and metrics time series, the structured logger, per-client
// attribution with its top-K cardinality cap, the /debug HTTP surface,
// watchdog stall detection, and the access-log/flight-recorder agreement
// gate — every completed request must render the same outcome, lane,
// client and microsecond timings in both places.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "serving/client.h"
#include "serving/http.h"
#include "serving/protocol.h"
#include "serving/server.h"
#include "sim/sim_cache.h"
#include "target/gpu_spec.h"
#include "tuner/records.h"

namespace alcop {
namespace {

using serving::JsonValue;
using serving::ParseJson;

// ------------------------------------------------------- flight recorder

obs::RequestRecord MakeRecord(uint64_t id, const std::string& client,
                              const std::string& lane,
                              const std::string& outcome) {
  obs::RequestRecord rec;
  rec.id = id;
  rec.client = client;
  rec.method = "ping";
  rec.lane = lane;
  rec.outcome = outcome;
  rec.transport = "unix";
  rec.arrival_ns = static_cast<int64_t>(id) * 1000;
  rec.queue_us = 1.5;
  rec.service_us = 2.5;
  rec.total_us = 4.0;
  return rec;
}

TEST(FlightRecorderTest, RingWrapsAndSnapshotsMostRecentFirst) {
  obs::FlightRecorder flight(4);
  for (uint64_t id = 1; id <= 10; ++id) {
    flight.Record(MakeRecord(id, "c" + std::to_string(id % 2), "fast", "ok"));
  }
  EXPECT_EQ(flight.total_recorded(), 10u);
  EXPECT_EQ(flight.depth(), 4u);
  std::vector<obs::RequestRecord> all = flight.Snapshot(100);
  ASSERT_EQ(all.size(), 4u);  // ring keeps the last `depth` only
  EXPECT_EQ(all[0].id, 10u);  // most recent first
  EXPECT_EQ(all[1].id, 9u);
  EXPECT_EQ(all[3].id, 7u);
  // n caps the answer below the retained count.
  EXPECT_EQ(flight.Snapshot(2).size(), 2u);
  flight.Clear();
  EXPECT_EQ(flight.total_recorded(), 0u);
  EXPECT_TRUE(flight.Snapshot(10).empty());
}

TEST(FlightRecorderTest, FiltersMatchClientLaneAndOutcome) {
  obs::FlightRecorder flight(16);
  flight.Record(MakeRecord(1, "alice", "fast", "ok"));
  flight.Record(MakeRecord(2, "bob", "slow", "ok"));
  flight.Record(MakeRecord(3, "alice", "slow", "error"));
  flight.Record(MakeRecord(4, "bob", "fast", "ok"));

  obs::FlightRecorder::Filter by_client;
  by_client.client = "alice";
  std::vector<obs::RequestRecord> alice = flight.Snapshot(10, by_client);
  ASSERT_EQ(alice.size(), 2u);
  EXPECT_EQ(alice[0].id, 3u);
  EXPECT_EQ(alice[1].id, 1u);

  obs::FlightRecorder::Filter by_lane;
  by_lane.lane = "slow";
  EXPECT_EQ(flight.Snapshot(10, by_lane).size(), 2u);

  obs::FlightRecorder::Filter combined;
  combined.client = "bob";
  combined.lane = "fast";
  combined.outcome = "ok";
  std::vector<obs::RequestRecord> both = flight.Snapshot(10, combined);
  ASSERT_EQ(both.size(), 1u);
  EXPECT_EQ(both[0].id, 4u);

  obs::FlightRecorder::Filter nobody;
  nobody.client = "eve";
  EXPECT_TRUE(flight.Snapshot(10, nobody).empty());
}

TEST(FlightRecorderTest, RecordJsonRoundTripsThroughParser) {
  obs::RequestRecord rec = MakeRecord(42, "uid:1000", "slow", "error");
  rec.op_key = "mm_512x512x512";
  rec.client_id = 9;
  rec.batch = 7;
  rec.queue_us = 1234.5678901234567;
  std::string json = obs::RequestRecordJson(rec);
  std::optional<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  EXPECT_EQ(parsed->Find("id")->NumberOr(0), 42.0);
  EXPECT_EQ(parsed->Find("client")->StringOr(""), "uid:1000");
  EXPECT_EQ(parsed->Find("client_id")->NumberOr(0), 9.0);
  EXPECT_EQ(parsed->Find("op_key")->StringOr(""), "mm_512x512x512");
  EXPECT_EQ(parsed->Find("lane")->StringOr(""), "slow");
  EXPECT_EQ(parsed->Find("outcome")->StringOr(""), "error");
  EXPECT_EQ(parsed->Find("transport")->StringOr(""), "unix");
  EXPECT_EQ(parsed->Find("batch")->NumberOr(0), 7.0);
  EXPECT_EQ(parsed->Find("queue_us")->NumberOr(0), 1234.5678901234567);
}

// ---------------------------------------------------- metrics time series

obs::MetricSnapshot CounterSnap(const std::string& name, double value) {
  obs::MetricSnapshot snap;
  snap.kind = obs::MetricSnapshot::Kind::kCounter;
  snap.name = name;
  snap.value = value;
  return snap;
}

TEST(MetricsTimeSeriesTest, FlattenExpandsHistogramsAndSorts) {
  obs::MetricSnapshot hist;
  hist.kind = obs::MetricSnapshot::Kind::kHistogram;
  hist.name = "t.lat.us";
  hist.histogram.count = 3;
  hist.histogram.sum = 12.5;
  std::vector<std::pair<std::string, double>> flat =
      obs::FlattenSnapshot({CounterSnap("t.z", 9), hist, CounterSnap("t.a", 1)});
  ASSERT_EQ(flat.size(), 4u);
  // Sorted by name; the histogram expands to .count/.sum.
  EXPECT_EQ(flat[0].first, "t.a");
  EXPECT_EQ(flat[1].first, "t.lat.us.count");
  EXPECT_EQ(flat[1].second, 3.0);
  EXPECT_EQ(flat[2].first, "t.lat.us.sum");
  EXPECT_EQ(flat[2].second, 12.5);
  EXPECT_EQ(flat[3].first, "t.z");
}

TEST(MetricsTimeSeriesTest, RingWrapsAndSeriesIsOldestFirst) {
  obs::MetricsTimeSeries series(3);
  for (int64_t t = 1; t <= 5; ++t) {
    series.Sample(t, {CounterSnap("t.req", static_cast<double>(t) * 10)});
  }
  EXPECT_EQ(series.samples(), 3u);  // wrapped to the last 3
  std::vector<obs::MetricsTimeSeries::Point> points = series.Series("t.req");
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].t_ns, 3);  // oldest retained first
  EXPECT_EQ(points[0].value, 30.0);
  EXPECT_EQ(points[2].t_ns, 5);
  EXPECT_EQ(points[2].value, 50.0);
  EXPECT_TRUE(series.Series("t.missing").empty());
  std::vector<std::string> names = series.Names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "t.req");
  series.Clear();
  EXPECT_EQ(series.samples(), 0u);
}

// ------------------------------------------------------ structured logging

TEST(StructuredLogTest, ParsesLevelNames) {
  using obs::LogLevel;
  using obs::ParseLogLevel;
  EXPECT_EQ(ParseLogLevel("debug", LogLevel::kInfo), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("INFO", LogLevel::kError), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("Warn", LogLevel::kInfo), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("warning", LogLevel::kInfo), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("error", LogLevel::kInfo), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("off", LogLevel::kInfo), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("none", LogLevel::kInfo), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("bogus", LogLevel::kWarn), LogLevel::kWarn);
  EXPECT_STREQ(obs::LogLevelName(LogLevel::kWarn), "warn");
}

TEST(StructuredLogTest, LevelGatesRingRetainsAndLinesParse) {
  obs::StructuredLog& log = obs::StructuredLog::Global();
  obs::LogLevel saved = log.level();
  log.Clear();
  log.SetLevel(obs::LogLevel::kWarn);

  obs::Log(obs::LogLevel::kInfo, "test", "suppressed");
  EXPECT_EQ(log.total_lines(), 0u);

  obs::Log(obs::LogLevel::kWarn, "test", "kept \"quoted\"",
           obs::LogFields()
               .Str("who", "a\\b")
               .Num("age_us", 12.5)
               .Int("depth", -3)
               .Bool("stalled", true)
               .Raw("tail", "[1,2]"));
  EXPECT_EQ(log.total_lines(), 1u);
  std::vector<std::string> recent = log.Recent(10);
  ASSERT_EQ(recent.size(), 1u);
  std::optional<JsonValue> line = ParseJson(recent[0]);
  ASSERT_TRUE(line.has_value()) << recent[0];
  EXPECT_EQ(line->Find("level")->StringOr(""), "warn");
  EXPECT_EQ(line->Find("component")->StringOr(""), "test");
  EXPECT_EQ(line->Find("msg")->StringOr(""), "kept \"quoted\"");
  EXPECT_EQ(line->Find("who")->StringOr(""), "a\\b");
  EXPECT_EQ(line->Find("age_us")->NumberOr(0), 12.5);
  EXPECT_EQ(line->Find("depth")->NumberOr(0), -3.0);
  EXPECT_TRUE(line->Find("stalled")->BoolOr(false));
  ASSERT_EQ(line->Find("tail")->array.size(), 2u);
  EXPECT_GT(line->Find("ts_ns")->NumberOr(0), 0.0);

  // Ring wrap: only the newest lines are retained, the rest counted.
  log.Clear();
  log.SetRingDepth(2);
  for (int i = 0; i < 5; ++i) {
    obs::Log(obs::LogLevel::kError, "test", "line" + std::to_string(i));
  }
  EXPECT_EQ(log.total_lines(), 5u);
  EXPECT_EQ(log.dropped_lines(), 3u);
  recent = log.Recent(10);
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_NE(recent[0].find("line3"), std::string::npos);  // oldest first
  EXPECT_NE(recent[1].find("line4"), std::string::npos);

  log.SetRingDepth(1024);
  log.SetLevel(saved);
  log.Clear();
}

// ---------------------------------------------------------------------------
// End-to-end daemon tests ("Server" in the fixture name keeps these in
// the TSan CI selection).
// ---------------------------------------------------------------------------

// Counter value for a fully-labeled name, without creating the series.
double RegistryCounterValue(const std::string& name, bool* found = nullptr) {
  for (const obs::MetricSnapshot& snap : obs::Registry::Global().Snapshot()) {
    if (snap.name == name) {
      if (found != nullptr) *found = true;
      return snap.value;
    }
  }
  if (found != nullptr) *found = false;
  return 0.0;
}

class FlightServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::ResetSimCache();
    tuner::TuningStore::Global().Clear();
    socket_path_ =
        "/tmp/alcopd_flight_" + std::to_string(::getpid()) + ".sock";
    access_log_path_ =
        "/tmp/alcopd_flight_" + std::to_string(::getpid()) + ".access.jsonl";
    std::remove(access_log_path_.c_str());
    options_.socket_path = socket_path_;
    options_.spec = target::AmpereSpec();
    options_.default_trials = 4;
    options_.space.tb_m = {64, 128};
    options_.space.tb_n = {64};
    options_.space.tb_k = {32};
    options_.cache_path = "";
    options_.persist_on_shutdown = false;
    options_.flight_depth = 256;
    options_.snapshot_interval_ms = 10;
    options_.watchdog_stall_ms = 0;  // individual tests opt in
  }

  void TearDown() override {
    std::remove(socket_path_.c_str());
    std::remove(access_log_path_.c_str());
    sim::ResetSimCache();
    tuner::TuningStore::Global().Clear();
  }

  static std::string Ping(int id, const std::string& client) {
    return "{\"id\":" + std::to_string(id) + ",\"method\":\"ping\"" +
           (client.empty() ? std::string()
                           : ",\"client\":\"" + client + "\"") +
           "}";
  }

  std::string socket_path_;
  std::string access_log_path_;
  serving::ServerOptions options_;
};

TEST_F(FlightServerTest, DebugEndpointsServeTheirSchemas) {
  options_.http_port = 0;
  serving::Server server(options_);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  int port = server.http_port();
  ASSERT_GT(port, 0);

  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_));
  ASSERT_TRUE(client.Call(Ping(1, "dbg_zeta")).has_value());
  ASSERT_TRUE(client.Call(Ping(2, "dbg_eta")).has_value());

  // /debug/requests: retained records, most recent first.
  std::optional<serving::HttpResponse> requests =
      serving::HttpCall(port, "GET", "/debug/requests?n=10");
  ASSERT_TRUE(requests.has_value());
  EXPECT_EQ(requests->status, 200);
  std::optional<JsonValue> doc = ParseJson(requests->body);
  ASSERT_TRUE(doc.has_value()) << requests->body;
  EXPECT_GE(doc->Find("total_recorded")->NumberOr(0), 2.0);
  const JsonValue* list = doc->Find("requests");
  ASSERT_NE(list, nullptr);
  ASSERT_GE(list->array.size(), 2u);
  const JsonValue& newest = list->array[0];
  EXPECT_EQ(newest.Find("client")->StringOr(""), "dbg_eta");
  EXPECT_EQ(newest.Find("lane")->StringOr(""), "fast");
  EXPECT_EQ(newest.Find("outcome")->StringOr(""), "ok");
  EXPECT_EQ(newest.Find("transport")->StringOr(""), "unix");

  // ?client= filter narrows to one identity.
  std::optional<serving::HttpResponse> filtered =
      serving::HttpCall(port, "GET", "/debug/requests?client=dbg_zeta");
  ASSERT_TRUE(filtered.has_value());
  doc = ParseJson(filtered->body);
  ASSERT_TRUE(doc.has_value());
  for (const JsonValue& rec : doc->Find("requests")->array) {
    EXPECT_EQ(rec.Find("client")->StringOr(""), "dbg_zeta");
  }

  // /debug/timeseries: names listing, then points for one metric. The
  // 10ms snapshot interval needs a beat to accumulate samples.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  std::optional<serving::HttpResponse> names =
      serving::HttpCall(port, "GET", "/debug/timeseries");
  ASSERT_TRUE(names.has_value());
  EXPECT_EQ(names->status, 200);
  doc = ParseJson(names->body);
  ASSERT_TRUE(doc.has_value()) << names->body;
  EXPECT_GE(doc->Find("samples")->NumberOr(0), 1.0);
  bool saw_requests_metric = false;
  for (const JsonValue& name : doc->Find("metrics")->array) {
    if (name.StringOr("") == "serving.requests") saw_requests_metric = true;
  }
  EXPECT_TRUE(saw_requests_metric);
  std::optional<serving::HttpResponse> points = serving::HttpCall(
      port, "GET", "/debug/timeseries?metric=serving.requests");
  ASSERT_TRUE(points.has_value());
  doc = ParseJson(points->body);
  ASSERT_TRUE(doc.has_value()) << points->body;
  EXPECT_EQ(doc->Find("metric")->StringOr(""), "serving.requests");
  const JsonValue* series = doc->Find("points");
  ASSERT_NE(series, nullptr);
  ASSERT_GE(series->array.size(), 1u);
  EXPECT_GT(series->array[0].Find("t_ns")->NumberOr(0), 0.0);
  EXPECT_GE(series->array.back().Find("value")->NumberOr(-1),
            series->array[0].Find("value")->NumberOr(-1));

  // /debug/log: the daemon's own "started" line is retained.
  std::optional<serving::HttpResponse> log =
      serving::HttpCall(port, "GET", "/debug/log?n=50");
  ASSERT_TRUE(log.has_value());
  EXPECT_EQ(log->status, 200);
  doc = ParseJson(log->body);
  ASSERT_TRUE(doc.has_value()) << log->body;
  bool saw_started = false;
  for (const JsonValue& line : doc->Find("lines")->array) {
    if (line.Find("msg") != nullptr &&
        line.Find("msg")->StringOr("") == "started") {
      saw_started = true;
    }
  }
  EXPECT_TRUE(saw_started);

  // /debug/trace: Chrome JSON with the host process named.
  std::optional<serving::HttpResponse> trace =
      serving::HttpCall(port, "GET", "/debug/trace");
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->status, 200);
  EXPECT_NE(trace->body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace->body.find("alcop host"), std::string::npos);

  // Wrong verb and unknown view get transport errors.
  std::optional<serving::HttpResponse> wrong_verb =
      serving::HttpCall(port, "POST", "/debug/requests", "{}");
  ASSERT_TRUE(wrong_verb.has_value());
  EXPECT_EQ(wrong_verb->status, 405);
  std::optional<serving::HttpResponse> unknown =
      serving::HttpCall(port, "GET", "/debug/nope");
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(unknown->status, 404);

  // The socket-side mirror answers the same views.
  std::optional<JsonValue> socket_debug = client.Call(
      "{\"id\":9,\"method\":\"debug\",\"what\":\"requests\",\"n\":3}");
  ASSERT_TRUE(socket_debug.has_value());
  EXPECT_TRUE(socket_debug->Find("ok")->BoolOr(false));
  EXPECT_EQ(socket_debug->Find("what")->StringOr(""), "requests");
  ASSERT_NE(socket_debug->Find("result"), nullptr);
  EXPECT_NE(socket_debug->Find("result")->Find("requests"), nullptr);
  std::optional<JsonValue> socket_bad = client.Call(
      "{\"id\":10,\"method\":\"debug\",\"what\":\"nope\"}");
  ASSERT_TRUE(socket_bad.has_value());
  EXPECT_FALSE(socket_bad->Find("ok")->BoolOr(true));

  server.Stop();
}

// A record's op_key is the TuningStore's key (tuner::OpKey): one shape at
// two batch sizes is two workloads, and a tune's record names the key its
// reply reports.
TEST_F(FlightServerTest, RecordsKeyTheWorkloadAsTheTuningStoreDoes) {
  options_.http_port = 0;
  serving::Server server(options_);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_));
  for (int batch : {1, 8}) {
    std::optional<JsonValue> compiled = client.Call(
        "{\"id\":" + std::to_string(batch) +
        ",\"method\":\"compile\",\"family\":\"batch_matmul\",\"batch\":" +
        std::to_string(batch) +
        ",\"m\":256,\"n\":256,\"k\":256,"
        "\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],\"smem\":2}}");
    ASSERT_TRUE(compiled.has_value());
    EXPECT_TRUE(compiled->Find("ok")->BoolOr(false));
  }
  std::optional<JsonValue> tuned = client.Call(
      "{\"id\":20,\"method\":\"tune\",\"m\":256,\"n\":256,\"k\":256,"
      "\"trials\":2}");
  ASSERT_TRUE(tuned.has_value());
  ASSERT_TRUE(tuned->Find("ok")->BoolOr(false));

  std::optional<serving::HttpResponse> requests =
      serving::HttpCall(server.http_port(), "GET", "/debug/requests?n=10");
  ASSERT_TRUE(requests.has_value());
  std::optional<JsonValue> doc = ParseJson(requests->body);
  ASSERT_TRUE(doc.has_value()) << requests->body;
  std::map<int, std::string> op_key_by_id;
  for (const JsonValue& rec : doc->Find("requests")->array) {
    op_key_by_id[static_cast<int>(rec.Find("client_id")->NumberOr(-1))] =
        rec.Find("op_key")->StringOr("");
  }
  EXPECT_EQ(op_key_by_id[1], "batch_matmul/1/256x256x256");
  EXPECT_EQ(op_key_by_id[8], "batch_matmul/8/256x256x256");
  EXPECT_EQ(op_key_by_id[20], tuned->Find("op_key")->StringOr("?"));
  server.Stop();
}

TEST_F(FlightServerTest, AttributionPrefersHeaderThenBodyThenPeer) {
  options_.http_port = 0;
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  int port = server.http_port();

  double header_before = RegistryCounterValue(
      "serving.client.requests|client=attr_hdr");
  double body_before = RegistryCounterValue(
      "serving.client.requests|client=attr_body");
  std::string uid_series =
      "serving.client.requests|client=uid:" + std::to_string(::getuid());
  double uid_before = RegistryCounterValue(uid_series);

  // HTTP with X-Alcop-Client: the header wins over the body field.
  std::optional<serving::HttpResponse> with_header = serving::HttpCall(
      port, "POST", "/v1/ping", "{\"id\":1,\"client\":\"attr_body\"}",
      {{"X-Alcop-Client", "attr_hdr"}});
  ASSERT_TRUE(with_header.has_value());
  EXPECT_EQ(with_header->status, 200);

  // Unix socket with a body field: the self-declared identity is used.
  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_));
  ASSERT_TRUE(client.Call(Ping(2, "attr_body")).has_value());

  // Unix socket with no declaration: SO_PEERCRED attributes the uid.
  ASSERT_TRUE(client.Call(Ping(3, "")).has_value());

  EXPECT_EQ(RegistryCounterValue("serving.client.requests|client=attr_hdr"),
            header_before + 1);
  EXPECT_EQ(RegistryCounterValue("serving.client.requests|client=attr_body"),
            body_before + 1);
  EXPECT_EQ(RegistryCounterValue(uid_series), uid_before + 1);

  // Identities are sanitized before they become label values.
  ASSERT_TRUE(client.Call(Ping(4, "we ird/guy")).has_value());
  bool found = false;
  RegistryCounterValue("serving.client.requests|client=we_ird_guy", &found);
  EXPECT_TRUE(found);

  // The flight recorder saw the same attribution.
  std::optional<serving::HttpResponse> requests =
      serving::HttpCall(port, "GET", "/debug/requests?client=attr_hdr");
  ASSERT_TRUE(requests.has_value());
  std::optional<JsonValue> doc = ParseJson(requests->body);
  ASSERT_TRUE(doc.has_value());
  ASSERT_GE(doc->Find("requests")->array.size(), 1u);
  EXPECT_EQ(doc->Find("requests")->array[0].Find("transport")->StringOr(""),
            "http");

  server.Stop();
}

TEST_F(FlightServerTest, ClientCardinalityCapCollapsesToOther) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());

  // The counters are process-global, so a repeated run starts from the
  // last run's values: compare deltas.
  auto series = [](const std::string& client) {
    return "serving.client.requests|client=" + client;
  };
  const std::string own = "uid:" + std::to_string(::geteuid());
  std::vector<std::string> capped = {own};
  for (int i = 1; i < 16; ++i) capped.push_back("cap" + std::to_string(i));
  std::vector<double> before;
  for (const std::string& client : capped) {
    before.push_back(RegistryCounterValue(series(client)));
  }
  double other_before = RegistryCounterValue(series("other"));

  // A ping without a "client" field is attributed to the connection's
  // own identity, which takes the first of the 16 slots; cap1..cap15
  // take the rest, and capX and capY arrive past the cap.
  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_));
  int id = 0;
  ASSERT_TRUE(client.Call(Ping(++id, "")).has_value());
  for (size_t i = 1; i < capped.size(); ++i) {
    ASSERT_TRUE(client.Call(Ping(++id, capped[i])).has_value());
  }
  ASSERT_TRUE(client.Call(Ping(++id, "capX")).has_value());
  ASSERT_TRUE(client.Call(Ping(++id, "capY")).has_value());
  ASSERT_TRUE(client.Call(Ping(++id, "capX")).has_value());
  ASSERT_TRUE(client.Call(Ping(++id, "cap1")).has_value());

  // The first 16 identities own their series...
  for (size_t i = 0; i < capped.size(); ++i) {
    bool found = false;
    double delta = RegistryCounterValue(series(capped[i]), &found) - before[i];
    EXPECT_TRUE(found) << capped[i];
    EXPECT_EQ(delta, i == 1 ? 2.0 : 1.0) << capped[i];
  }
  // ...while overflow identities share "other" and never mint a series,
  // even on repeat traffic.
  bool found_x = false;
  bool found_y = false;
  RegistryCounterValue(series("capX"), &found_x);
  RegistryCounterValue(series("capY"), &found_y);
  EXPECT_FALSE(found_x);
  EXPECT_FALSE(found_y);
  EXPECT_EQ(RegistryCounterValue(series("other")), other_before + 3);

  server.Stop();
}

TEST_F(FlightServerTest, WatchdogTripsOnStalledSlowLaneAndDumps) {
  options_.watchdog_stall_ms = 10;
  // Twice the fixture's space, so the tune below can measure 192 configs
  // in 24 model-guided rounds: about 80 ms on one core of a 4-vCPU host,
  // eight stall thresholds.
  options_.space.tb_n = {64, 128};
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());

  double stalls_before = RegistryCounterValue("serving.watchdog.stalls");

  // One long tune occupies the single slow worker; a compile queued
  // behind it ages past the 10ms threshold while the tune runs. The
  // compile is sent once the tune's round has started, so it queues for
  // nearly the whole tune however fast the tuner is.
  obs::Counter& rounds = obs::Registry::Global().GetCounter("serving.batches");
  const uint64_t rounds_before = rounds.Value();
  std::thread tuner_thread([&] {
    serving::Client tune_client;
    ASSERT_TRUE(tune_client.Connect(socket_path_));
    std::optional<JsonValue> response = tune_client.Call(
        "{\"id\":1,\"method\":\"tune\",\"m\":512,\"n\":512,\"k\":4096,"
        "\"trials\":192}");
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(response->Find("ok")->BoolOr(false));
  });
  bool round_started = false;
  for (int i = 0; i < 10000 && !round_started; ++i) {
    round_started = rounds.Value() > rounds_before;
    if (!round_started) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_TRUE(round_started) << "the tune never reached the slow lane";
  std::thread compile_thread([&] {
    serving::Client compile_client;
    ASSERT_TRUE(compile_client.Connect(socket_path_));
    std::optional<JsonValue> response = compile_client.Call(
        "{\"id\":2,\"method\":\"compile\",\"m\":512,\"n\":512,\"k\":768,"
        "\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],\"smem\":2}}");
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(response->Find("ok")->BoolOr(false));
  });
  tuner_thread.join();
  compile_thread.join();

  EXPECT_GT(RegistryCounterValue("serving.watchdog.stalls"), stalls_before);

  // The one-shot dump landed in the structured-log ring with the
  // flight-recorder tail and a flattened metrics snapshot attached.
  bool saw_dump = false;
  for (const std::string& line :
       obs::StructuredLog::Global().Recent(256)) {
    if (line.find("lane stalled") == std::string::npos) continue;
    std::optional<JsonValue> parsed = ParseJson(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->Find("level")->StringOr(""), "error");
    EXPECT_GT(parsed->Find("oldest_age_us")->NumberOr(0), 0.0);
    EXPECT_GE(parsed->Find("queue_depth")->NumberOr(0), 1.0);
    EXPECT_NE(parsed->Find("flight_tail"), nullptr);
    EXPECT_NE(parsed->Find("metrics"), nullptr);
    saw_dump = true;
  }
  EXPECT_TRUE(saw_dump);

  server.Stop();
}

TEST_F(FlightServerTest, AccessLogAndFlightAgreeUnderConcurrentClients) {
  options_.access_log_path = access_log_path_;
  options_.http_port = 0;
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  int port = server.http_port();

  constexpr int kClients = 4;
  constexpr int kPerClient = 8;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      serving::Client client;
      ASSERT_TRUE(client.Connect(socket_path_));
      std::string who = "agree" + std::to_string(c);
      for (int i = 0; i < kPerClient; ++i) {
        if (i == kPerClient - 1) {
          // One slow-lane request per client: a shape unseen elsewhere.
          std::optional<JsonValue> response = client.Call(
              "{\"id\":" + std::to_string(c * 100 + i) +
              ",\"method\":\"compile\",\"client\":\"" + who +
              "\",\"m\":256,\"n\":256,\"k\":" +
              std::to_string(1024 + 128 * c) +
              ",\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],"
              "\"smem\":2}}");
          ASSERT_TRUE(response.has_value());
        } else {
          ASSERT_TRUE(client.Call(Ping(c * 100 + i, who)).has_value());
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Snapshot the flight recorder over HTTP, then stop (flushes the log).
  std::optional<serving::HttpResponse> requests =
      serving::HttpCall(port, "GET", "/debug/requests?n=256");
  ASSERT_TRUE(requests.has_value());
  std::optional<JsonValue> doc = ParseJson(requests->body);
  ASSERT_TRUE(doc.has_value());
  server.Stop();

  // Index the access log by server-assigned request id.
  std::ifstream log(access_log_path_);
  ASSERT_TRUE(log.is_open());
  std::map<uint64_t, JsonValue> by_id;
  std::string line;
  size_t access_lines = 0;
  while (std::getline(log, line)) {
    if (line.empty()) continue;
    ++access_lines;
    std::optional<JsonValue> parsed = ParseJson(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    by_id.emplace(
        static_cast<uint64_t>(parsed->Find("id")->NumberOr(0)),
        std::move(*parsed));
  }
  ASSERT_GE(access_lines, static_cast<size_t>(kClients * kPerClient));

  // Every retained flight record must agree with its access-log line on
  // attribution, routing, outcome and the exact microsecond timings
  // (both sides render the same doubles at precision 17).
  const JsonValue* flight_list = doc->Find("requests");
  ASSERT_NE(flight_list, nullptr);
  size_t compared = 0;
  std::set<std::string> flight_clients;
  for (const JsonValue& rec : flight_list->array) {
    uint64_t id = static_cast<uint64_t>(rec.Find("id")->NumberOr(0));
    auto it = by_id.find(id);
    // The /debug/requests call itself completes after its own snapshot,
    // so it may appear in the log but not the snapshot — never the
    // reverse for ids the snapshot holds.
    ASSERT_NE(it, by_id.end()) << "flight id " << id << " not in access log";
    const JsonValue& logged = it->second;
    EXPECT_EQ(rec.Find("client")->StringOr("!"),
              logged.Find("client")->StringOr("?"));
    EXPECT_EQ(rec.Find("method")->StringOr("!"),
              logged.Find("method")->StringOr("?"));
    EXPECT_EQ(rec.Find("lane")->StringOr("!"),
              logged.Find("lane")->StringOr("?"));
    EXPECT_EQ(rec.Find("outcome")->StringOr("!"),
              logged.Find("outcome")->StringOr("?"));
    EXPECT_EQ(rec.Find("batch")->NumberOr(-1),
              logged.Find("batch")->NumberOr(-2));
    EXPECT_EQ(rec.Find("queue_us")->NumberOr(-1),
              logged.Find("queue_us")->NumberOr(-2));
    EXPECT_EQ(rec.Find("service_us")->NumberOr(-1),
              logged.Find("service_us")->NumberOr(-2));
    EXPECT_EQ(rec.Find("total_us")->NumberOr(-1),
              logged.Find("total_us")->NumberOr(-2));
    flight_clients.insert(rec.Find("client")->StringOr(""));
    ++compared;
  }
  EXPECT_GE(compared, static_cast<size_t>(kClients * kPerClient));
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(flight_clients.count("agree" + std::to_string(c)))
        << "missing client agree" << c;
  }
}

}  // namespace
}  // namespace alcop
