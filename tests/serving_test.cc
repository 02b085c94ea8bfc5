// Tests of the alcopd serving stack: the wire protocol (framing + JSON
// subset), the client, and an end-to-end daemon on a unix socket —
// fast-lane routing, slow-lane compiles and profiles, warm-started tuning
// and the stored-tuning warm-restart path.
#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "schedule/tensor.h"
#include "serving/client.h"
#include "serving/persist.h"
#include "serving/protocol.h"
#include "serving/server.h"
#include "sim/sim_cache.h"
#include "support/json.h"
#include "target/gpu_spec.h"
#include "tuner/records.h"
#include "tuner/space.h"

namespace alcop {
namespace {

using serving::JsonValue;
using serving::ParseJson;

TEST(ProtocolJsonTest, ParsesScalarsObjectsAndArrays) {
  std::optional<JsonValue> v = ParseJson(
      "{\"id\": 7, \"ok\": true, \"name\": \"a\\\"b\", \"x\": null, "
      "\"tb\": [128, 64, 32], \"f\": -1.5e3}");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->Find("id")->NumberOr(0), 7.0);
  EXPECT_TRUE(v->Find("ok")->BoolOr(false));
  EXPECT_EQ(v->Find("name")->StringOr(""), "a\"b");
  EXPECT_EQ(v->Find("x")->kind, JsonValue::Kind::kNull);
  ASSERT_EQ(v->Find("tb")->array.size(), 3u);
  EXPECT_EQ(v->Find("tb")->array[1].NumberOr(0), 64.0);
  EXPECT_EQ(v->Find("f")->NumberOr(0), -1500.0);
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(ProtocolJsonTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "{\"a\":}", "{\"a\":1,}", "[1,2", "{\"a\" 1}", "tru",
        "{\"a\":1} extra", "\"unterminated"}) {
    EXPECT_FALSE(ParseJson(bad).has_value()) << bad;
  }
}

// The number grammar, pinned spelling by spelling: std::from_chars's
// decimal form with an optional '-', plus inf, infinity and nan in any
// case (a bare lowercase "nan" reads as a misspelled null). No leading
// '+', no hex. Out of range fails; subnormals parse.
TEST(ProtocolJsonTest, NumberSpellingsTable) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    const char* text;
    std::optional<double> value;  // nullopt: the document is rejected
  } kSpellings[] = {
      {"0", 0.0},
      {"7", 7.0},
      {"-7", -7.0},
      {"12345678901234567890", 12345678901234567890.0},
      {"1.5", 1.5},
      {"-1.5e3", -1500.0},
      {"1E3", 1000.0},
      {"1e+3", 1000.0},
      {"1e-3", 0.001},
      {"-0", -0.0},
      {".5", 0.5},
      {"1.", 1.0},
      {"01", 1.0},
      {"1e400", std::nullopt},
      {"-1e400", std::nullopt},
      {"1e-400", std::nullopt},
      {"1e-310", 1e-310},
      {"4.9e-324", 4.9406564584124654e-324},
      {"inf", inf},
      {"-inf", -inf},
      {"Infinity", inf},
      {"NaN", nan},
      {"-nan", -nan},
      {"nan", std::nullopt},
      {"+1", std::nullopt},
      {"+inf", std::nullopt},
      {"0x10", std::nullopt},
      {"-0x10", std::nullopt},
      {"0x1p3", std::nullopt},
      {"1e", std::nullopt},
      {"-", std::nullopt},
  };
  for (const auto& spelling : kSpellings) {
    std::optional<JsonValue> v =
        ParseJson(std::string("[") + spelling.text + "]");
    ASSERT_EQ(v.has_value(), spelling.value.has_value()) << spelling.text;
    if (!v.has_value()) continue;
    double got = v->array.at(0).NumberOr(0);
    double want = *spelling.value;
    EXPECT_EQ(std::signbit(got), std::signbit(want)) << spelling.text;
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got)) << spelling.text;
    } else {
      EXPECT_EQ(got, want) << spelling.text;
    }
  }
}

TEST(ProtocolJsonTest, DepthIsBounded) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  EXPECT_FALSE(ParseJson(deep).has_value());
}

TEST(ProtocolJsonTest, EscapeRoundTripsThroughParser) {
  std::string nasty = "a\"b\\c\nd\te\rf\x01g\x1fh\bi\fj" + std::string(1, '\0');
  std::string doc = "{\"s\": \"" + support::JsonEscape(nasty) + "\"}";
  std::optional<JsonValue> v = ParseJson(doc);
  ASSERT_TRUE(v.has_value()) << doc;
  EXPECT_EQ(v->Find("s")->StringOr(""), nasty);
}

TEST(ProtocolFrameTest, RoundTripsOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string big(100000, 'x');
  for (const std::string& payload : {std::string("{}"), std::string(), big}) {
    ASSERT_TRUE(serving::WriteFrame(fds[0], payload));
    std::string read_back;
    ASSERT_TRUE(serving::ReadFrame(fds[1], &read_back));
    EXPECT_EQ(read_back, payload);
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

// A frame leaves in one write: over a SOCK_SEQPACKET pair, where each
// write is one record, the first read returns prefix and payload both.
TEST(ProtocolFrameTest, FrameLeavesInOneWrite) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, fds), 0);
  const std::string payload = "{\"id\":1,\"method\":\"ping\"}";
  ASSERT_TRUE(serving::WriteFrame(fds[0], payload));
  char record[256];
  EXPECT_EQ(::read(fds[1], record, sizeof(record)),
            static_cast<ssize_t>(sizeof(uint32_t) + payload.size()));
  EXPECT_EQ(std::string(record + sizeof(uint32_t), payload.size()), payload);
  ::close(fds[0]);
  ::close(fds[1]);
}

void IgnoreSignal(int) {}

// A frame larger than the socket buffer, whose writes a signal cuts
// short, resumes each time at the first byte not yet sent.
TEST(ProtocolFrameTest, InterruptedWritesResumeMidFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  int small = 4096;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)),
            0);
  struct sigaction action {}, previous{};
  action.sa_handler = IgnoreSignal;  // no SA_RESTART: writes return short
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);
  std::string big(1 << 20, '\0');
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i % 251);
  bool written = false;
  std::thread writer([&] { written = serving::WriteFrame(fds[0], big); });
  // Interrupt the writer while it blocks on a full buffer, then drain.
  for (int i = 0; i < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ::pthread_kill(writer.native_handle(), SIGUSR1);
    char chunk[65536];
    EXPECT_GT(::recv(fds[1], chunk, sizeof(chunk), MSG_PEEK), 0);
  }
  std::string read_back;
  EXPECT_TRUE(serving::ReadFrame(fds[1], &read_back));
  writer.join();
  ::sigaction(SIGUSR1, &previous, nullptr);
  EXPECT_TRUE(written);
  EXPECT_TRUE(read_back == big) << "frame corrupted across short writes";
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ProtocolFrameTest, OversizedLengthPrefixIsRejected) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  uint32_t huge = serving::kMaxFrameBytes + 1;
  ASSERT_EQ(::write(fds[0], &huge, sizeof(huge)),
            static_cast<ssize_t>(sizeof(huge)));
  std::string payload;
  EXPECT_FALSE(serving::ReadFrame(fds[1], &payload));
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// End-to-end daemon tests.
// ---------------------------------------------------------------------------

// Polls `done` every millisecond for up to `limit_ms`.
template <typename Predicate>
bool WaitFor(Predicate done, int limit_ms = 10000) {
  for (int i = 0; i < limit_ms; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

// A raw connection to the daemon's socket whose reads give up after two
// seconds, so a daemon that never answers fails the test instead of
// hanging it. -1 on failure.
int ConnectWithTimeout(const std::string& socket_path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  timeval timeout{2, 0};
  if (fd < 0 ||
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)) !=
          0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (fd >= 0) ::close(fd);
    return -1;
  }
  return fd;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::ResetSimCache();
    tuner::TuningStore::Global().Clear();
    socket_path_ =
        ::testing::TempDir() + "/alcopd_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".sock";
    // TempDir test names can push an AF_UNIX path past sun_path; keep it
    // short instead of silently truncating.
    if (socket_path_.size() >= 100) {
      socket_path_ = "/tmp/alcopd_test_" + std::to_string(::getpid()) + ".sock";
    }
    options_.socket_path = socket_path_;
    options_.spec = target::AmpereSpec();
    options_.default_trials = 6;
    options_.space.tb_m = {64, 128};
    options_.space.tb_n = {64};
    options_.space.tb_k = {32};
    options_.cache_path = "";  // no persistence unless a test opts in
    options_.persist_on_shutdown = false;
  }

  void TearDown() override {
    std::remove(socket_path_.c_str());
    sim::ResetSimCache();
    tuner::TuningStore::Global().Clear();
  }

  std::string socket_path_;
  serving::ServerOptions options_;
};

TEST_F(ServerTest, PingStatsAndErrorPaths) {
  serving::Server server(options_);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_, &error)) << error;

  std::optional<JsonValue> pong = client.Call("{\"id\":1,\"method\":\"ping\"}");
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->Find("ok")->BoolOr(false));
  EXPECT_EQ(pong->Find("id")->NumberOr(0), 1.0);

  std::optional<JsonValue> stats =
      client.Call("{\"id\":2,\"method\":\"stats\"}");
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->Find("ok")->BoolOr(false));
  EXPECT_NE(stats->Find("resident_bytes"), nullptr);

  std::optional<JsonValue> bad = client.Call("{\"id\":3,\"method\":\"nope\"}");
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(bad->Find("ok")->BoolOr(true));
  EXPECT_NE(bad->Find("error")->StringOr("").find("unknown method"),
            std::string::npos);

  std::optional<JsonValue> malformed = client.Call("this is not json");
  ASSERT_TRUE(malformed.has_value());
  EXPECT_FALSE(malformed->Find("ok")->BoolOr(true));

  server.Stop();
}

TEST_F(ServerTest, StatsReportsInflightAndPerLaneLatency) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_));

  // A couple of fast-lane requests so the lane histogram has data by the
  // time stats is answered (stats itself is a fast-lane request too).
  ASSERT_TRUE(client.Call("{\"id\":1,\"method\":\"ping\"}").has_value());
  ASSERT_TRUE(client.Call("{\"id\":2,\"method\":\"ping\"}").has_value());

  std::optional<JsonValue> stats =
      client.Call("{\"id\":3,\"method\":\"stats\"}");
  ASSERT_TRUE(stats.has_value());
  ASSERT_TRUE(stats->Find("ok")->BoolOr(false));
  // The stats request is still in flight while it computes its answer.
  EXPECT_GE(stats->Find("inflight")->NumberOr(-1), 1.0);
  const JsonValue* latency = stats->Find("latency");
  ASSERT_NE(latency, nullptr);
  const JsonValue* fast = latency->Find("fast");
  ASSERT_NE(fast, nullptr);
  EXPECT_GE(fast->Find("count")->NumberOr(0), 2.0);
  EXPECT_GT(fast->Find("p50_us")->NumberOr(0), 0.0);
  EXPECT_GE(fast->Find("p99_us")->NumberOr(0),
            fast->Find("p50_us")->NumberOr(0));
  const JsonValue* slow = latency->Find("slow");
  ASSERT_NE(slow, nullptr);
  EXPECT_NE(slow->Find("count"), nullptr);

  server.Stop();
}

TEST_F(ServerTest, CompileMissesThenHitsFastLane) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_));

  std::string request =
      "{\"id\":1,\"method\":\"compile\",\"m\":512,\"n\":512,\"k\":512,"
      "\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],\"smem\":2}}";
  std::optional<JsonValue> cold = client.Call(request);
  ASSERT_TRUE(cold.has_value());
  ASSERT_TRUE(cold->Find("ok")->BoolOr(false))
      << cold->Find("error")->StringOr("");
  ASSERT_TRUE(cold->Find("feasible")->BoolOr(false));
  double cold_cycles = cold->Find("cycles")->NumberOr(0);
  EXPECT_GT(cold_cycles, 0);

  // Second time through: the timing is cached, the fast lane answers,
  // and the value is identical.
  std::optional<JsonValue> warm = client.Call(request);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->Find("cycles")->NumberOr(-1), cold_cycles);

  sim::SimCacheStats stats = sim::GetSimCacheStats();
  EXPECT_GE(stats.hits, 1u);

  std::optional<JsonValue> invalid = client.Call(
      "{\"id\":9,\"method\":\"compile\",\"m\":512,\"n\":512,\"k\":512}");
  ASSERT_TRUE(invalid.has_value());
  EXPECT_FALSE(invalid->Find("ok")->BoolOr(true));
  server.Stop();
}

// The fast lane answers a warm compile from the one probe that routed it,
// so the sim cache counts one hit for it, not one per lookup.
TEST_F(ServerTest, WarmCompileCountsOneTimingHit) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_));

  std::string request =
      "{\"id\":1,\"method\":\"compile\",\"m\":512,\"n\":512,\"k\":512,"
      "\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],\"smem\":2}}";
  std::optional<JsonValue> cold = client.Call(request);
  ASSERT_TRUE(cold.has_value());
  ASSERT_TRUE(cold->Find("ok")->BoolOr(false));
  const uint64_t hits_before = sim::GetSimCacheStats().hits;
  std::optional<JsonValue> warm = client.Call(request);
  ASSERT_TRUE(warm.has_value());
  ASSERT_TRUE(warm->Find("ok")->BoolOr(false));
  EXPECT_EQ(sim::GetSimCacheStats().hits - hits_before, 1u);
  server.Stop();
}

// An unknown method is a decode error, answered at dispatch like
// malformed JSON: it does not wait for the slow lane to finish a search.
TEST_F(ServerTest, UnknownMethodIsAnsweredWhileATuneHoldsTheSlowLane) {
  options_.space = tuner::SpaceOptions();  // a search that takes a while
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  serving::Client tune, other;
  ASSERT_TRUE(tune.Connect(socket_path_));
  ASSERT_TRUE(other.Connect(socket_path_));

  obs::Registry& registry = obs::Registry::Global();
  obs::Counter& rounds = registry.GetCounter("serving.batches");
  obs::Counter& slow_done = registry.GetCounter("serving.slow_lane");
  const uint64_t rounds_before = rounds.Value();
  const uint64_t slow_done_before = slow_done.Value();
  ASSERT_TRUE(tune.Send(
      "{\"id\":1,\"method\":\"tune\",\"m\":1024,\"n\":1024,"
      "\"k\":1024,\"trials\":64}"));
  ASSERT_TRUE(WaitFor([&] { return rounds.Value() > rounds_before; }));

  std::optional<JsonValue> unknown =
      other.Call("{\"id\":2,\"method\":\"nope\"}");
  EXPECT_EQ(slow_done.Value(), slow_done_before)
      << "the reply waited for the tune";
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(unknown->Find("id")->NumberOr(-1), 2.0);
  EXPECT_FALSE(unknown->Find("ok")->BoolOr(true));
  EXPECT_EQ(unknown->Find("error")->StringOr(""), "unknown method \"nope\"");

  std::optional<JsonValue> tuned = tune.Recv();
  ASSERT_TRUE(tuned.has_value());
  EXPECT_TRUE(tuned->Find("ok")->BoolOr(false));
  // A second reply to the unknown method would be read here.
  std::optional<JsonValue> pong = other.Call("{\"id\":3,\"method\":\"ping\"}");
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->Find("id")->NumberOr(-1), 3.0);
  server.Stop();
}

const char kHotCompile[] =
    "\"method\":\"compile\",\"m\":512,\"n\":512,\"k\":512,"
    "\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],\"smem\":2}}";
const char kStoredTune[] =
    "\"method\":\"tune\",\"m\":256,\"n\":256,\"k\":256,\"trials\":2}";

// `{"id":<id>,` + body: one of the bodies above.
std::string WithId(int id, const char* body) {
  return "{\"id\":" + std::to_string(id) + "," + body;
}

// A cached compile and a stored tune are answered on the IO thread, so
// neither waits for the tune that holds the slow lane.
TEST_F(ServerTest, CacheHitsAreAnsweredWhileATuneHoldsTheSlowLane) {
  options_.space = tuner::SpaceOptions();  // a search that takes a while
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  serving::Client tune, other;
  ASSERT_TRUE(tune.Connect(socket_path_));
  ASSERT_TRUE(other.Connect(socket_path_));
  // Warm both: the compile's timing and the small tune's result.
  for (const char* body : {kHotCompile, kStoredTune}) {
    std::optional<JsonValue> warm = other.Call(WithId(1, body));
    ASSERT_TRUE(warm.has_value());
    ASSERT_TRUE(warm->Find("ok")->BoolOr(false));
  }

  obs::Registry& registry = obs::Registry::Global();
  obs::Counter& rounds = registry.GetCounter("serving.batches");
  obs::Counter& slow_done = registry.GetCounter("serving.slow_lane");
  const uint64_t rounds_before = rounds.Value();
  const uint64_t slow_done_before = slow_done.Value();
  ASSERT_TRUE(tune.Send(
      "{\"id\":1,\"method\":\"tune\",\"m\":1024,\"n\":1024,"
      "\"k\":1024,\"trials\":64}"));
  ASSERT_TRUE(WaitFor([&] { return rounds.Value() > rounds_before; }));

  std::optional<JsonValue> hit = other.Call(WithId(2, kHotCompile));
  std::optional<JsonValue> stored = other.Call(WithId(3, kStoredTune));
  EXPECT_EQ(slow_done.Value(), slow_done_before)
      << "a cache hit waited for the tune";
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->Find("id")->NumberOr(-1), 2.0);
  EXPECT_TRUE(hit->Find("feasible")->BoolOr(false));
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->Find("id")->NumberOr(-1), 3.0);
  EXPECT_EQ(stored->Find("source")->StringOr(""), "store");

  std::optional<JsonValue> tuned = tune.Recv();
  ASSERT_TRUE(tuned.has_value());
  EXPECT_TRUE(tuned->Find("ok")->BoolOr(false));
  server.Stop();
}

// Several frames in one write, fast and slow alike, get exactly one reply
// per id.
TEST_F(ServerTest, OneWriteOfSeveralFramesGetsOneReplyPerId) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  serving::Client warm;
  ASSERT_TRUE(warm.Connect(socket_path_));
  for (const char* body : {kHotCompile, kStoredTune}) {
    std::optional<JsonValue> reply = warm.Call(WithId(1, body));
    ASSERT_TRUE(reply.has_value());
    ASSERT_TRUE(reply->Find("ok")->BoolOr(false));
  }

  int fd = ConnectWithTimeout(socket_path_);
  ASSERT_GE(fd, 0);
  const std::vector<std::string> payloads = {
      "{\"id\":1,\"method\":\"ping\"}", WithId(2, kHotCompile),
      WithId(3, kStoredTune),
      "{\"id\":4,\"method\":\"compile\",\"m\":512,\"n\":512,"
      "\"k\":640,\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],"
      "\"smem\":2}}"};
  std::string bytes;
  for (const std::string& payload : payloads) {
    const uint32_t len = static_cast<uint32_t>(payload.size());
    bytes.append(reinterpret_cast<const char*>(&len), sizeof(len));
    bytes += payload;
  }
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  std::map<int, int> replies;  // by id
  for (size_t i = 0; i < payloads.size(); ++i) {
    std::string reply;
    ASSERT_TRUE(serving::ReadFrame(fd, &reply)) << "reply " << i;
    std::optional<JsonValue> parsed = ParseJson(reply);
    ASSERT_TRUE(parsed.has_value()) << reply;
    EXPECT_TRUE(parsed->Find("ok")->BoolOr(false)) << reply;
    ++replies[static_cast<int>(parsed->Find("id")->NumberOr(-1))];
  }
  EXPECT_EQ(replies, (std::map<int, int>{{1, 1}, {2, 1}, {3, 1}, {4, 1}}));
  // A second reply to any of them would be read here in place of the pong.
  ASSERT_TRUE(serving::WriteFrame(fd, "{\"id\":5,\"method\":\"ping\"}"));
  std::string pong;
  ASSERT_TRUE(serving::ReadFrame(fd, &pong));
  EXPECT_NE(pong.find("\"id\":5"), std::string::npos) << pong;
  ::close(fd);
  server.Stop();
}

// persist and load read or write the whole cache on disk, so they run on
// the slow lane, never on the IO thread.
TEST_F(ServerTest, PersistAndLoadRunOnTheSlowLane) {
  options_.access_log_path = socket_path_ + ".access.jsonl";
  std::remove(options_.access_log_path.c_str());
  const std::string store = socket_path_ + ".store.alcp";
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_));
  ASSERT_TRUE(client.Call(WithId(1, kHotCompile)).has_value());
  const std::string path = ",\"path\":\"" + store + "\"}";
  std::optional<JsonValue> persisted =
      client.Call("{\"id\":2,\"method\":\"persist\"" + path);
  ASSERT_TRUE(persisted.has_value());
  EXPECT_TRUE(persisted->Find("ok")->BoolOr(false));
  EXPECT_GE(persisted->Find("timings")->NumberOr(0), 1.0);
  std::optional<JsonValue> loaded =
      client.Call("{\"id\":3,\"method\":\"load\"" + path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->Find("ok")->BoolOr(false));
  EXPECT_EQ(loaded->Find("bytes")->NumberOr(-1),
            persisted->Find("bytes")->NumberOr(-2));
  server.Stop();

  std::map<int, std::string> lane;  // by client_id
  std::ifstream log(options_.access_log_path);
  std::string line;
  while (std::getline(log, line)) {
    std::optional<JsonValue> entry = ParseJson(line);
    ASSERT_TRUE(entry.has_value()) << line;
    lane[static_cast<int>(entry->Find("client_id")->NumberOr(0))] =
        entry->Find("method")->StringOr("") + "/" +
        entry->Find("lane")->StringOr("");
  }
  EXPECT_EQ(lane[2], "persist/slow");
  EXPECT_EQ(lane[3], "load/slow");
  std::remove(store.c_str());
  std::remove(options_.access_log_path.c_str());
}

// A peer that sends half a length prefix and stalls must not hold up the
// IO thread: another client's ping is still answered, and the stalled
// frame is answered once the rest of it arrives.
TEST_F(ServerTest, StalledHalfFrameDoesNotBlockOtherClients) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  int stalled = ConnectWithTimeout(socket_path_);
  ASSERT_GE(stalled, 0);
  const std::string stalled_ping = "{\"id\":1,\"method\":\"ping\"}";
  const uint32_t len = static_cast<uint32_t>(stalled_ping.size());
  ASSERT_EQ(::write(stalled, &len, 2), 2);
  // Let the daemon read the half prefix before the other client connects.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  int other = ConnectWithTimeout(socket_path_);
  ASSERT_GE(other, 0);
  ASSERT_TRUE(serving::WriteFrame(other, "{\"id\":2,\"method\":\"ping\"}"));
  std::string reply;
  EXPECT_TRUE(serving::ReadFrame(other, &reply))
      << "no reply while another peer's frame is incomplete";
  EXPECT_NE(reply.find("\"pong\":true"), std::string::npos) << reply;

  // The rest of the stalled frame.
  ASSERT_EQ(::write(stalled, reinterpret_cast<const char*>(&len) + 2, 2), 2);
  ASSERT_EQ(::write(stalled, stalled_ping.data(), stalled_ping.size()),
            static_cast<ssize_t>(stalled_ping.size()));
  reply.clear();
  EXPECT_TRUE(serving::ReadFrame(stalled, &reply));
  EXPECT_NE(reply.find("\"id\":1"), std::string::npos) << reply;
  ::close(stalled);
  ::close(other);
  server.Stop();
}

// The frames of pings with ids 1..count.
std::string PingFrames(int count) {
  std::string frames;
  for (int id = 1; id <= count; ++id) {
    EXPECT_TRUE(serving::AppendFrame(
        "{\"id\":" + std::to_string(id) + ",\"method\":\"ping\"}", &frames));
  }
  return frames;
}

// Writes all of `bytes` to the daemon. A daemon that stopped reading
// would leave the write blocked, so it gives up after ten seconds without
// progress, closes `fd` to release such a daemon, and returns false.
bool WriteBurst(int fd, const std::string& bytes) {
  timeval timeout{10, 0};
  size_t sent = 0;
  if (::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout)) ==
      0) {
    while (sent < bytes.size()) {
      ssize_t n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
  }
  if (sent < bytes.size()) ::close(fd);
  return sent == bytes.size();
}

// A client that writes a burst far larger than the socket buffers,
// half-closes and only then reads its replies, from one thread, is
// answered in full: the daemon keeps reading the burst while the replies
// it has not yet sent wait, and parses the rest after the EOF. Meanwhile
// the IO thread still answers everyone else.
TEST_F(ServerTest, BurstReadOnlyAfterItIsWrittenStallsNoOne) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  int bursty = ConnectWithTimeout(socket_path_);
  ASSERT_GE(bursty, 0);
  constexpr int kPings = 20000;
  ASSERT_TRUE(WriteBurst(bursty, PingFrames(kPings)))
      << "the daemon stopped reading the burst";
  ASSERT_EQ(::shutdown(bursty, SHUT_WR), 0);

  int other = ConnectWithTimeout(socket_path_);
  ASSERT_GE(other, 0);
  ASSERT_TRUE(serving::WriteFrame(other, "{\"id\":1,\"method\":\"ping\"}"));
  std::string reply;
  EXPECT_TRUE(serving::ReadFrame(other, &reply))
      << "no reply while another client's replies wait";
  EXPECT_NE(reply.find("\"pong\":true"), std::string::npos) << reply;
  ::close(other);

  std::vector<int> seen(kPings + 1, 0);
  for (int i = 0; i < kPings; ++i) {
    ASSERT_TRUE(serving::ReadFrame(bursty, &reply)) << "reply " << i;
    std::optional<JsonValue> parsed = ParseJson(reply);
    ASSERT_TRUE(parsed.has_value()) << reply;
    int id = static_cast<int>(parsed->Find("id")->NumberOr(0));
    ASSERT_TRUE(id >= 1 && id <= kPings) << reply;
    ++seen[static_cast<size_t>(id)];
  }
  EXPECT_EQ(std::count(seen.begin() + 1, seen.end(), 1), kPings);
  ::close(bursty);
  server.Stop();
}

// A client that sends a tune and a burst of pings and then reads nothing
// fills its socket with pongs before the tune ends. The slow lane hands
// the tune's reply to the IO thread, which queues it behind those pongs,
// and goes on to the next request: another client's cold compile is
// answered at once. Once the silent client reads, every reply arrives,
// each exactly once.
TEST_F(ServerTest, SlowReplyToAClientThatStopsReadingStallsNoOne) {
  options_.space = tuner::SpaceOptions();  // a search that takes a while
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  int silent = ConnectWithTimeout(socket_path_);
  ASSERT_GE(silent, 0);
  constexpr int kPings = 20000;
  std::string burst;
  ASSERT_TRUE(serving::AppendFrame(
      "{\"id\":0,\"method\":\"tune\",\"m\":1024,\"n\":1024,\"k\":1024,"
      "\"trials\":64}",
      &burst));
  burst += PingFrames(kPings);
  obs::Counter& slow_done =
      obs::Registry::Global().GetCounter("serving.slow_lane");
  const uint64_t slow_done_before = slow_done.Value();
  ASSERT_TRUE(WriteBurst(silent, burst))
      << "the daemon stopped reading the burst";
  // The slow lane counts the tune just before it replies. The search
  // takes well under a second in an optimized build, but ten seconds or
  // more in a ThreadSanitizer debug build.
  ASSERT_TRUE(WaitFor([&] { return slow_done.Value() > slow_done_before; },
                      /*limit_ms=*/120000));

  int other = ConnectWithTimeout(socket_path_);
  ASSERT_GE(other, 0);
  ASSERT_TRUE(serving::WriteFrame(
      other,
      "{\"id\":1,\"method\":\"compile\",\"m\":512,\"n\":512,\"k\":768,"
      "\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],\"smem\":2}}"));
  std::string reply;
  EXPECT_TRUE(serving::ReadFrame(other, &reply))
      << "a cold compile waited for a client that does not read";
  EXPECT_NE(reply.find("\"feasible\":true"), std::string::npos) << reply;
  ::close(other);

  std::vector<int> seen(kPings + 1, 0);
  for (int i = 0; i <= kPings; ++i) {
    ASSERT_TRUE(serving::ReadFrame(silent, &reply)) << "reply " << i;
    std::optional<JsonValue> parsed = ParseJson(reply);
    ASSERT_TRUE(parsed.has_value()) << reply;
    EXPECT_TRUE(parsed->Find("ok")->BoolOr(false)) << reply;
    int id = static_cast<int>(parsed->Find("id")->NumberOr(-1));
    ASSERT_TRUE(id >= 0 && id <= kPings) << reply;
    ++seen[static_cast<size_t>(id)];
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), kPings + 1);
  ::close(silent);
  server.Stop();
}

// A peer that half-closes right after sending a request that goes to the
// slow lane is kept until that reply has gone out: the reply arrives,
// then the end of the stream.
TEST_F(ServerTest, HalfClosedPeerGetsItsSlowReply) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  int fd = ConnectWithTimeout(socket_path_);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(serving::WriteFrame(
      fd,
      "{\"id\":1,\"method\":\"compile\",\"m\":512,\"n\":512,\"k\":896,"
      "\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],\"smem\":2}}"));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  std::string reply;
  EXPECT_TRUE(serving::ReadFrame(fd, &reply)) << "the compile got no reply";
  EXPECT_NE(reply.find("\"id\":1,\"ok\":true"), std::string::npos) << reply;
  EXPECT_FALSE(serving::ReadFrame(fd, &reply)) << "second reply: " << reply;
  ::close(fd);
  server.Stop();
}

TEST_F(ServerTest, ProfileWarmsTheTimingLayerForCompile) {
  options_.access_log_path = socket_path_ + ".access.jsonl";
  std::remove(options_.access_log_path.c_str());
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_));

  const std::string fields =
      "\"m\":512,\"n\":512,\"k\":512,"
      "\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],\"smem\":2}}";
  std::optional<JsonValue> profiled =
      client.Call("{\"id\":1,\"method\":\"profile\"," + fields);
  ASSERT_TRUE(profiled.has_value());
  ASSERT_TRUE(profiled->Find("ok")->BoolOr(false));
  ASSERT_NE(profiled->Find("pmu"), nullptr);
  std::optional<JsonValue> compiled =
      client.Call("{\"id\":2,\"method\":\"compile\"," + fields);
  ASSERT_TRUE(compiled.has_value());
  EXPECT_EQ(compiled->Find("cycles")->NumberOr(-1),
            profiled->Find("cycles")->NumberOr(-2));
  // A profile after the compile compiles the kernel again for its
  // counters and measures the same cycles.
  std::optional<JsonValue> reprofiled =
      client.Call("{\"id\":3,\"method\":\"profile\"," + fields);
  ASSERT_TRUE(reprofiled.has_value());
  ASSERT_TRUE(reprofiled->Find("ok")->BoolOr(false));
  ASSERT_NE(reprofiled->Find("pmu"), nullptr);
  EXPECT_EQ(reprofiled->Find("cycles")->NumberOr(-1),
            profiled->Find("cycles")->NumberOr(-2));
  server.Stop();

  // Each profile replayed on the slow lane; the compile between them was
  // a fast-lane hit on the timing the first profile measured.
  std::ifstream log(options_.access_log_path);
  std::map<double, std::string> lane_outcome;  // by client_id
  std::string line;
  while (std::getline(log, line)) {
    std::optional<JsonValue> entry = ParseJson(line);
    ASSERT_TRUE(entry.has_value()) << line;
    lane_outcome[entry->Find("client_id")->NumberOr(0)] =
        entry->Find("lane")->StringOr("") + "/" +
        entry->Find("outcome")->StringOr("");
  }
  EXPECT_EQ(lane_outcome[1], "slow/compiled");
  EXPECT_EQ(lane_outcome[2], "fast/hit");
  EXPECT_EQ(lane_outcome[3], "slow/compiled");
  std::remove(options_.access_log_path.c_str());
}

// The `sim.arena.bytes` gauge; 0 until some thread's pooled arena
// registers it.
double ArenaGaugeBytes() {
  for (const obs::MetricSnapshot& m : obs::Registry::Global().Snapshot()) {
    if (m.name == "sim.arena.bytes") return m.value;
  }
  return 0.0;
}

// A cold compile replays through the slow lane's pooled arena, the one
// the gauge counts, so a fresh server's first compile raises it.
TEST_F(ServerTest, ColdCompileReplaysThroughThePublishedArena) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_));
  const double before = ArenaGaugeBytes();
  std::optional<JsonValue> compiled = client.Call(
      "{\"id\":1,\"method\":\"compile\",\"m\":512,\"n\":512,\"k\":512,"
      "\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],\"smem\":2}}");
  ASSERT_TRUE(compiled.has_value());
  ASSERT_TRUE(compiled->Find("ok")->BoolOr(false));
  EXPECT_GT(ArenaGaugeBytes(), before);
  server.Stop();
}

TEST_F(ServerTest, ConcurrentSlowLaneCompilesAllAnswer) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());

  // Several clients slam the slow lane at once; the worker drains them
  // in rounds. Every request must get its own answer.
  std::vector<std::thread> clients;
  std::vector<double> cycles(6, 0.0);
  for (int i = 0; i < 6; ++i) {
    clients.emplace_back([&, i] {
      serving::Client client;
      ASSERT_TRUE(client.Connect(socket_path_));
      std::string request =
          "{\"id\":" + std::to_string(i) +
          ",\"method\":\"compile\",\"m\":512,\"n\":512,\"k\":" +
          std::to_string(512 + 128 * i) +
          ",\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],"
          "\"smem\":2}}";
      std::optional<JsonValue> response = client.Call(request);
      ASSERT_TRUE(response.has_value());
      ASSERT_TRUE(response->Find("ok")->BoolOr(false));
      EXPECT_EQ(response->Find("id")->NumberOr(-1), i);
      cycles[static_cast<size_t>(i)] = response->Find("cycles")->NumberOr(0);
    });
  }
  for (std::thread& thread : clients) thread.join();
  for (double c : cycles) EXPECT_GT(c, 0.0);

  // The slow lane's answer is bit-identical to the direct path.
  schedule::ScheduleConfig config;
  config.tile = {128, 128, 32, 64, 64, 16};
  config.smem_stages = 2;
  sim::KernelTiming direct = sim::CachedCompileAndSimulate(
      schedule::MakeMatmul("mm", 512, 512, 640), config, options_.spec);
  EXPECT_EQ(cycles[1], direct.cycles);
  server.Stop();
}

TEST_F(ServerTest, SlowLaneStampsEachRequestsPickup) {
  // Two never-seen compiles queue behind a tune and drain in one
  // slow-lane round. The one served second is picked up only once the
  // other completes: its wait inside the round is queue time, not
  // service time.
  options_.access_log_path = socket_path_ + ".access.jsonl";
  std::remove(options_.access_log_path.c_str());
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  serving::Client tune, first, second;
  ASSERT_TRUE(tune.Connect(socket_path_));
  ASSERT_TRUE(first.Connect(socket_path_));
  ASSERT_TRUE(second.Connect(socket_path_));
  auto compile = [](int id, int k) {
    return "{\"id\":" + std::to_string(id) +
           ",\"method\":\"compile\",\"m\":512,\"n\":512,\"k\":" +
           std::to_string(k) +
           ",\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],"
           "\"smem\":2}}";
  };
  obs::Counter& rounds = obs::Registry::Global().GetCounter("serving.batches");
  const uint64_t rounds_before = rounds.Value();
  ASSERT_TRUE(tune.Send(
      "{\"id\":1,\"method\":\"tune\",\"m\":512,\"n\":768,\"k\":1024,"
      "\"trials\":32}"));
  // The compiles are sent once the tune's round has started, so both
  // queue behind it instead of one joining the tune's round.
  ASSERT_TRUE(WaitFor([&] { return rounds.Value() > rounds_before; }));
  ASSERT_TRUE(first.Send(compile(2, 512)));
  ASSERT_TRUE(second.Send(compile(3, 640)));
  for (serving::Client* client : {&tune, &first, &second}) {
    std::optional<JsonValue> response = client->Recv();
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(response->Find("ok")->BoolOr(false));
  }
  server.Stop();

  // Pickup and completion on the trace clock, by client_id.
  std::map<int, std::pair<double, double>> spans;
  std::map<int, double> round;
  std::ifstream log(options_.access_log_path);
  std::string line;
  while (std::getline(log, line)) {
    std::optional<JsonValue> entry = ParseJson(line);
    ASSERT_TRUE(entry.has_value()) << line;
    const int id = static_cast<int>(entry->Find("client_id")->NumberOr(0));
    const double arrival = entry->Find("arrival_ns")->NumberOr(0);
    spans[id] = {arrival + entry->Find("queue_us")->NumberOr(0) * 1e3,
                 arrival + entry->Find("total_us")->NumberOr(0) * 1e3};
    round[id] = entry->Find("batch")->NumberOr(0);
  }
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(round[2], round[3]) << "the compiles drained in separate rounds";
  auto [earlier, later] = spans[2].first <= spans[3].first
                              ? std::pair(spans[2], spans[3])
                              : std::pair(spans[3], spans[2]);
  EXPECT_GE(later.first, earlier.second)
      << "the second compile's pickup precedes the first one's completion";
  std::remove(options_.access_log_path.c_str());
}

TEST_F(ServerTest, TuneSearchesThenWarmRestartsFromStore) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_));

  std::string request =
      "{\"id\":1,\"method\":\"tune\",\"m\":512,\"n\":768,\"k\":1024}";
  std::optional<JsonValue> cold = client.Call(request);
  ASSERT_TRUE(cold.has_value());
  ASSERT_TRUE(cold->Find("ok")->BoolOr(false))
      << cold->Find("error")->StringOr("");
  EXPECT_EQ(cold->Find("source")->StringOr(""), "search");
  double best = cold->Find("best_cycles")->NumberOr(0);
  EXPECT_GT(best, 0);

  // Same shape again: answered from the TuningStore without a search,
  // with the identical best.
  std::optional<JsonValue> warm = client.Call(request);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->Find("source")->StringOr(""), "store");
  EXPECT_EQ(warm->Find("best_cycles")->NumberOr(-1), best);

  // A neighboring shape warm-starts from the stored one.
  std::optional<JsonValue> neighbor = client.Call(
      "{\"id\":2,\"method\":\"tune\",\"m\":512,\"n\":768,\"k\":1280}");
  ASSERT_TRUE(neighbor.has_value());
  ASSERT_TRUE(neighbor->Find("ok")->BoolOr(false));
  EXPECT_EQ(neighbor->Find("source")->StringOr(""), "search");
  EXPECT_EQ(neighbor->Find("warm_source")->StringOr(""),
            "matmul/1/512x768x1024");
  EXPECT_GT(neighbor->Find("warm_seeds")->NumberOr(0), 0);

  // force re-runs the search even for a stored shape, and never returns
  // a worse best than the store (the seeds replay the stored best).
  std::optional<JsonValue> forced = client.Call(
      "{\"id\":3,\"method\":\"tune\",\"m\":512,\"n\":768,\"k\":1024,"
      "\"force\":true}");
  ASSERT_TRUE(forced.has_value());
  ASSERT_TRUE(forced->Find("ok")->BoolOr(false));
  EXPECT_EQ(forced->Find("source")->StringOr(""), "search");
  EXPECT_LE(forced->Find("best_cycles")->NumberOr(1e30), best);
  server.Stop();
}

// A number that is not finite, or whose truncation does not fit the field's
// integer type, would make a decoding cast undefined (on x86, "trials":
// 1e300 would turn into a huge count and an exhaustive search). Each such
// field gets exactly one ok:false reply, and nothing is compiled or tuned.
TEST_F(ServerTest, OutOfRangeIntegersGetOneErrorReplyAndNoWork) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_));

  const std::string op = "\"m\":512,\"n\":512,\"k\":512";
  const std::string compile = "{\"id\":1,\"method\":\"compile\",";
  const std::string tune = "{\"id\":1,\"method\":\"tune\",";
  auto config = [&](const std::string& fields) {
    return compile + op + ",\"config\":{\"tb\":[128,128,32]" + fields + "}}";
  };
  const std::vector<std::string> bad = {
      compile + "\"m\":1e300,\"n\":512,\"k\":512,"
                "\"config\":{\"tb\":[128,128,32]}}",
      compile + "\"m\":512,\"n\":-1e300,\"k\":512,"
                "\"config\":{\"tb\":[128,128,32]}}",
      tune + "\"m\":512,\"n\":512,\"k\":inf}",
      tune + op + ",\"batch\":1e19}",
      compile + op + ",\"config\":{\"tb\":[128,1e300,32]}}",
      config(",\"warp\":[64,64,1e20]"),
      config(",\"smem\":3e9"),
      config(",\"reg\":-3e9"),
      config(",\"split_k\":1e300"),
      config(",\"raster\":-inf"),
      config(",\"smem\":-nan"),
      "{\"id\":1e300,\"method\":\"ping\"}",
      "{\"id\":-inf,\"method\":\"ping\"}",
      tune + op + ",\"trials\":-1}",
      tune + op + ",\"trials\":1e300}",
  };

  obs::Counter& refits = obs::Registry::Global().GetCounter("tuner.refits");
  uint64_t refits_before = refits.Value();
  uint64_t misses_before = sim::GetSimCacheStats().misses;
  for (size_t i = 0; i < bad.size(); ++i) {
    std::optional<JsonValue> reply = client.Call(bad[i]);
    ASSERT_TRUE(reply.has_value()) << bad[i];
    EXPECT_FALSE(reply->Find("ok")->BoolOr(true)) << bad[i];
    EXPECT_FALSE(reply->Find("error")->StringOr("").empty()) << bad[i];
    // A second reply to the bad request, sent along with the first, would
    // be read here in place of the pong.
    std::string ping =
        "{\"id\":" + std::to_string(100 + i) + ",\"method\":\"ping\"}";
    std::optional<JsonValue> pong = client.Call(ping);
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->Find("id")->NumberOr(-1), static_cast<double>(100 + i))
        << bad[i];
  }
  EXPECT_EQ(sim::GetSimCacheStats().misses, misses_before);
  EXPECT_EQ(refits.Value(), refits_before);
  server.Stop();
}

TEST_F(ServerTest, ShutdownMethodStopsTheDaemonAndPersists) {
  options_.cache_path = ::testing::TempDir() + "/alcopd_shutdown_cache.alcp";
  std::remove(options_.cache_path.c_str());
  options_.persist_on_shutdown = true;

  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  serving::Client client;
  ASSERT_TRUE(client.Connect(socket_path_));
  std::optional<JsonValue> compiled = client.Call(
      "{\"id\":1,\"method\":\"compile\",\"m\":512,\"n\":512,\"k\":512,"
      "\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],\"smem\":2}}");
  ASSERT_TRUE(compiled.has_value());

  std::optional<JsonValue> ack =
      client.Call("{\"id\":2,\"method\":\"shutdown\"}");
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->Find("ok")->BoolOr(false));
  server.Wait();  // returns because shutdown was requested
  server.Stop();

  // Shutdown persisted the cache; a fresh load finds the compiled entry.
  sim::ResetSimCache();
  serving::PersistStats loaded =
      serving::LoadCache(options_.cache_path, options_.spec);
  EXPECT_TRUE(loaded.ok) << loaded.error;
  EXPECT_GE(loaded.timings, 1u);
  std::remove(options_.cache_path.c_str());
}

// A tune still on the slow lane when a shutdown arrives outlives the IO
// thread. Stop waits for it and sends its reply, once.
TEST_F(ServerTest, ShutdownAnswersWhatTheSlowLaneHolds) {
  options_.space = tuner::SpaceOptions();  // a search that takes a while
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  int tune = ConnectWithTimeout(socket_path_);
  ASSERT_GE(tune, 0);
  obs::Registry& registry = obs::Registry::Global();
  obs::Counter& rounds = registry.GetCounter("serving.batches");
  obs::Counter& slow_done = registry.GetCounter("serving.slow_lane");
  const uint64_t rounds_before = rounds.Value();
  const uint64_t slow_done_before = slow_done.Value();
  ASSERT_TRUE(serving::WriteFrame(
      tune,
      "{\"id\":1,\"method\":\"tune\",\"m\":1024,\"n\":1024,\"k\":1024,"
      "\"trials\":64}"));
  ASSERT_TRUE(WaitFor([&] { return rounds.Value() > rounds_before; }));

  serving::Client other;
  ASSERT_TRUE(other.Connect(socket_path_));
  std::optional<JsonValue> ack = other.Call("{\"id\":2,\"method\":\"shutdown\"}");
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->Find("ok")->BoolOr(false));
  EXPECT_EQ(slow_done.Value(), slow_done_before)
      << "the tune ended before the shutdown";
  server.Wait();
  server.Stop();

  // Stop has answered the tune and closed the connection, so the reply
  // waits in the socket and a second read finds the end of the stream.
  std::string reply;
  ASSERT_TRUE(serving::ReadFrame(tune, &reply)) << "the tune got no reply";
  EXPECT_NE(reply.find("\"id\":1,\"ok\":true"), std::string::npos) << reply;
  EXPECT_FALSE(serving::ReadFrame(tune, &reply)) << "second reply: " << reply;
  ::close(tune);
}

}  // namespace
}  // namespace alcop
