// Tests of the observability surface: the HTTP/1.1 parser and response
// formatter (serving/http.h), the Prometheus text exposition renderer
// (obs/prometheus.h), and the end-to-end HTTP front end of a live
// alcopd — /metrics, /healthz, POST /v1/<method>, and the access log.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "serving/http.h"
#include "serving/server.h"
#include "sim/sim_cache.h"
#include "target/gpu_spec.h"
#include "tuner/records.h"

namespace alcop {
namespace {

using serving::HttpParseResult;
using serving::HttpRequest;
using serving::ParseHttpRequest;

// ------------------------------------------------------------ HTTP parser

HttpParseResult Parse(const std::string& raw, HttpRequest* out = nullptr,
                      size_t* consumed = nullptr) {
  HttpRequest request;
  size_t used = 0;
  std::string error;
  HttpParseResult result =
      ParseHttpRequest(raw, out != nullptr ? out : &request,
                       consumed != nullptr ? consumed : &used, &error);
  return result;
}

TEST(HttpParserTest, ParsesGetWithHeaders) {
  HttpRequest request;
  size_t consumed = 0;
  std::string raw =
      "GET /metrics HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n";
  ASSERT_EQ(Parse(raw, &request, &consumed), HttpParseResult::kOk);
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/metrics");
  EXPECT_EQ(request.version, "HTTP/1.1");
  EXPECT_EQ(consumed, raw.size());
  EXPECT_TRUE(request.keep_alive);
  ASSERT_NE(request.FindHeader("host"), nullptr);  // case-insensitive
  EXPECT_EQ(*request.FindHeader("HOST"), "localhost");
  EXPECT_EQ(request.FindHeader("absent"), nullptr);
}

TEST(HttpParserTest, ParsesPostBodyAndPipelinedSuccessor) {
  HttpRequest request;
  size_t consumed = 0;
  std::string first =
      "POST /v1/ping HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
  std::string raw = first + "GET /healthz HTTP/1.1\r\n\r\n";
  ASSERT_EQ(Parse(raw, &request, &consumed), HttpParseResult::kOk);
  EXPECT_EQ(request.body, "{\"a\":1}");
  EXPECT_EQ(consumed, first.size());
  // The remainder parses as its own request.
  raw.erase(0, consumed);
  ASSERT_EQ(Parse(raw, &request, &consumed), HttpParseResult::kOk);
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/healthz");
}

TEST(HttpParserTest, NeedsMoreOnTruncatedHeadersAndBody) {
  // Header section not terminated yet.
  EXPECT_EQ(Parse("GET / HTTP/1.1\r\nHost: x"), HttpParseResult::kNeedMore);
  // Declared body longer than what has arrived.
  EXPECT_EQ(Parse("POST /v1/tune HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"m\""),
            HttpParseResult::kNeedMore);
  EXPECT_EQ(Parse(""), HttpParseResult::kNeedMore);
}

TEST(HttpParserTest, RejectsMalformedInputs) {
  struct Case {
    const char* label;
    std::string raw;
  };
  const std::string huge_header =
      "GET / HTTP/1.1\r\nX-Pad: " + std::string(20000, 'a') + "\r\n\r\n";
  // Oversized header section with no terminator in sight must fail fast,
  // not buffer forever.
  const std::string huge_no_terminator =
      "GET / HTTP/1.1\r\nX-Pad: " + std::string(20000, 'a');
  std::vector<Case> cases = {
      {"missing spaces", "GET/\r\n\r\n"},
      {"lowercase method", "get / HTTP/1.1\r\n\r\n"},
      {"overlong method", std::string(17, 'G') + " / HTTP/1.1\r\n\r\n"},
      {"relative target", "GET metrics HTTP/1.1\r\n\r\n"},
      {"control char in target", "GET /a\x01" "b HTTP/1.1\r\n\r\n"},
      {"bad version", "GET / HTTP/2\r\n\r\n"},
      {"not http at all", "SSH-2.0-OpenSSH\r\n\r\n"},
      {"header without colon", "GET / HTTP/1.1\r\nbroken\r\n\r\n"},
      {"header name with space", "GET / HTTP/1.1\r\nbad name: x\r\n\r\n"},
      {"empty header name", "GET / HTTP/1.1\r\n: x\r\n\r\n"},
      {"non-numeric length", "POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n"},
      {"negative length", "POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n"},
      {"oversized body",
       "POST / HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n"},
      {"chunked encoding",
       "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"},
      {"oversized headers", huge_header},
      {"oversized headers unterminated", huge_no_terminator},
  };
  for (const Case& test_case : cases) {
    HttpRequest request;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(ParseHttpRequest(test_case.raw, &request, &consumed, &error),
              HttpParseResult::kBad)
        << test_case.label;
    EXPECT_FALSE(error.empty()) << test_case.label;
  }
}

TEST(HttpParserTest, ConnectionHeaderControlsKeepAlive) {
  HttpRequest request;
  ASSERT_EQ(Parse("GET / HTTP/1.0\r\n\r\n", &request), HttpParseResult::kOk);
  EXPECT_FALSE(request.keep_alive);  // 1.0 defaults to close
  ASSERT_EQ(Parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", &request),
            HttpParseResult::kOk);
  EXPECT_TRUE(request.keep_alive);
  ASSERT_EQ(Parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n", &request),
            HttpParseResult::kOk);
  EXPECT_FALSE(request.keep_alive);
}

TEST(HttpFormatTest, ResponseCarriesLengthAndConnection) {
  std::string response = serving::FormatHttpResponse(
      200, "text/plain", "hello", {{"X-Extra", "1"}}, false);
  EXPECT_NE(response.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(response.find("X-Extra: 1\r\n"), std::string::npos);
  EXPECT_EQ(response.substr(response.size() - 5), "hello");
}

// A reply cut off before its Content-Length is a failed call, not a short
// success.
TEST(HttpCallTest, BodyShorterThanContentLengthFails) {
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), addr_len), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len),
      0);
  // The peer reads the request head, promises 10 bytes, sends 3, closes.
  std::thread peer([listener] {
    int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    std::string request;
    char buf[4096];
    while (request.find("\r\n\r\n") == std::string::npos) {
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) break;
      request.append(buf, static_cast<size_t>(n));
    }
    serving::HttpWriteAll(fd,
                          "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc");
    ::close(fd);
  });
  std::optional<serving::HttpResponse> response =
      serving::HttpCall(ntohs(addr.sin_port), "GET", "/");
  peer.join();
  ::close(listener);
  EXPECT_FALSE(response.has_value())
      << "status " << response->status << ", body \"" << response->body
      << "\"";
}

// ---------------------------------------------------- Prometheus renderer

obs::MetricSnapshot Counter(const std::string& name, double value,
                            const std::string& help = "") {
  obs::MetricSnapshot snapshot;
  snapshot.kind = obs::MetricSnapshot::Kind::kCounter;
  snapshot.name = name;
  snapshot.help = help;
  snapshot.value = value;
  return snapshot;
}

TEST(PrometheusTest, SplitsLabelsAndSanitizesNames) {
  std::vector<obs::PromLabel> labels;
  EXPECT_EQ(obs::SplitPromLabels("serving.request.latency.us|lane=fast",
                                 &labels),
            "serving.request.latency.us");
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels[0].key, "lane");
  EXPECT_EQ(labels[0].value, "fast");
  // A segment without '=' folds back into the base name.
  labels.clear();
  EXPECT_EQ(obs::SplitPromLabels("a|b|k=v", &labels), "a_b");
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(obs::PromMetricName("serving.request.latency.us"),
            "alcop_serving_request_latency_us");
  EXPECT_EQ(obs::PromMetricName("a|b c-d"), "alcop_a_b_c_d");
}

TEST(PrometheusTest, EscapesLabelValues) {
  obs::MetricSnapshot snapshot =
      Counter("t.esc|path=a\\b\"c\nd", 1.0, "escape probe");
  std::string text = obs::RenderPrometheus({snapshot});
  // Backslash, quote and newline must come out as \\ , \" and \n.
  EXPECT_NE(text.find("alcop_t_esc{path=\"a\\\\b\\\"c\\nd\"} 1"),
            std::string::npos)
      << text;
  EXPECT_EQ(obs::PromEscapeLabelValue("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
  EXPECT_EQ(obs::PromEscapeHelp("x\\y\nz"), "x\\\\y\\nz");
}

TEST(PrometheusTest, HistogramBucketsAreCumulativeWithConsistentCount) {
  obs::MetricSnapshot snapshot;
  snapshot.kind = obs::MetricSnapshot::Kind::kHistogram;
  snapshot.name = "t.hist.us|lane=fast";
  snapshot.help = "test histogram";
  snapshot.histogram = obs::HistogramData{};
  snapshot.histogram.buckets[0] = 3;  // [0, 1)
  snapshot.histogram.buckets[2] = 2;  // [2, 4)
  snapshot.histogram.buckets[5] = 1;  // [16, 32)
  snapshot.histogram.count = 6;
  snapshot.histogram.sum = 42.5;
  snapshot.histogram.max = 20.0;
  std::string text = obs::RenderPrometheus({snapshot});

  EXPECT_NE(text.find("# TYPE alcop_t_hist_us histogram"), std::string::npos);
  EXPECT_NE(text.find("# HELP alcop_t_hist_us test histogram"),
            std::string::npos);
  // Cumulative counts: 3 at le=1, still 3 at le=2, 5 at le=4, 5 until
  // le=16, 6 at le=32, 6 at +Inf == _count.
  EXPECT_NE(text.find("_bucket{lane=\"fast\",le=\"1\"} 3"), std::string::npos);
  EXPECT_NE(text.find("_bucket{lane=\"fast\",le=\"2\"} 3"), std::string::npos);
  EXPECT_NE(text.find("_bucket{lane=\"fast\",le=\"4\"} 5"), std::string::npos);
  EXPECT_NE(text.find("_bucket{lane=\"fast\",le=\"32\"} 6"),
            std::string::npos);
  EXPECT_NE(text.find("_bucket{lane=\"fast\",le=\"+Inf\"} 6"),
            std::string::npos);
  EXPECT_NE(text.find("_sum{lane=\"fast\"} 42.5"), std::string::npos);
  EXPECT_NE(text.find("_count{lane=\"fast\"} 6"), std::string::npos);
  // No buckets beyond the top populated one (le="64" never appears).
  EXPECT_EQ(text.find("le=\"64\""), std::string::npos);
}

TEST(PrometheusTest, LaneSeriesShareOneFamilyBlock) {
  obs::MetricSnapshot fast, slow;
  fast.kind = slow.kind = obs::MetricSnapshot::Kind::kHistogram;
  fast.name = "t.lat.us|lane=fast";
  slow.name = "t.lat.us|lane=slow";
  fast.help = slow.help = "latency";
  fast.histogram = slow.histogram = obs::HistogramData{};
  fast.histogram.buckets[0] = 1;
  fast.histogram.count = 1;
  std::string text = obs::RenderPrometheus({fast, slow});
  // Exactly one TYPE line for the family, both lane series present.
  size_t first = text.find("# TYPE alcop_t_lat_us histogram");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE alcop_t_lat_us histogram", first + 1),
            std::string::npos);
  EXPECT_NE(text.find("{lane=\"fast\",le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("{lane=\"slow\",le=\"+Inf\"} 0"), std::string::npos);
}

TEST(PrometheusTest, OutputIsByteDeterministic) {
  std::vector<obs::MetricSnapshot> snapshot = {
      Counter("t.z", 3, "last"), Counter("t.a", 1, "first"),
      Counter("t.m|k=v", 2)};
  std::string once = obs::RenderPrometheus(snapshot);
  std::string twice = obs::RenderPrometheus(snapshot);
  EXPECT_EQ(once, twice);
  // Families render in sorted name order regardless of snapshot order.
  EXPECT_LT(once.find("alcop_t_a"), once.find("alcop_t_m"));
  EXPECT_LT(once.find("alcop_t_m"), once.find("alcop_t_z"));
  // Two scrapes of the live registry with no writes in between are
  // byte-identical too.
  EXPECT_EQ(obs::RenderPrometheus(), obs::RenderPrometheus());
}

// ------------------------------------------------- end-to-end HTTP daemon

class HttpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::ResetSimCache();
    tuner::TuningStore::Global().Clear();
    socket_path_ = "/tmp/alcopd_http_test_" + std::to_string(::getpid()) +
                   ".sock";
    access_log_path_ = "/tmp/alcopd_http_test_" + std::to_string(::getpid()) +
                       ".access.jsonl";
    std::remove(access_log_path_.c_str());
    options_.socket_path = socket_path_;
    options_.spec = target::AmpereSpec();
    options_.default_trials = 4;
    options_.persist_on_shutdown = false;
    options_.http_port = 0;  // ephemeral
  }

  void TearDown() override {
    std::remove(socket_path_.c_str());
    std::remove(access_log_path_.c_str());
    sim::ResetSimCache();
    tuner::TuningStore::Global().Clear();
  }

  std::string socket_path_;
  std::string access_log_path_;
  serving::ServerOptions options_;
};

TEST_F(HttpServerTest, HealthzMetricsAndDispatch) {
  serving::Server server(options_);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  int port = server.http_port();
  ASSERT_GT(port, 0);

  std::optional<serving::HttpResponse> health =
      serving::HttpCall(port, "GET", "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  EXPECT_NE(health->body.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(health->FindHeader("X-Cache-Headroom-Bytes"), nullptr);

  // POST /v1/ping rides the same dispatch path as a socket frame.
  std::optional<serving::HttpResponse> pong =
      serving::HttpCall(port, "POST", "/v1/ping", "{\"id\":7}");
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->status, 200);
  EXPECT_NE(pong->body.find("\"pong\":true"), std::string::npos);
  EXPECT_NE(pong->body.find("\"id\":7"), std::string::npos);

  // A compile through HTTP lands in the same caches the socket uses.
  std::optional<serving::HttpResponse> compiled = serving::HttpCall(
      port, "POST", "/v1/compile",
      "{\"id\":1,\"m\":512,\"n\":512,\"k\":512,"
      "\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],\"smem\":2}}");
  ASSERT_TRUE(compiled.has_value());
  EXPECT_NE(compiled->body.find("\"ok\":true"), std::string::npos)
      << compiled->body;

  std::optional<serving::HttpResponse> metrics =
      serving::HttpCall(port, "GET", "/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, 200);
  const std::string* content_type = metrics->FindHeader("Content-Type");
  ASSERT_NE(content_type, nullptr);
  EXPECT_NE(content_type->find("version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics->body.find("# TYPE alcop_serving_requests counter"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("# TYPE alcop_serving_inflight gauge"),
            std::string::npos);
  EXPECT_NE(
      metrics->body.find(
          "alcop_serving_request_latency_us_count{lane=\"fast\"}"),
      std::string::npos);

  server.Stop();
}

TEST_F(HttpServerTest, TransportErrorsGetHttpStatusCodes) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  int port = server.http_port();

  std::optional<serving::HttpResponse> missing =
      serving::HttpCall(port, "GET", "/nope");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);

  std::optional<serving::HttpResponse> wrong_verb =
      serving::HttpCall(port, "POST", "/metrics", "{}");
  ASSERT_TRUE(wrong_verb.has_value());
  EXPECT_EQ(wrong_verb->status, 405);

  std::optional<serving::HttpResponse> get_v1 =
      serving::HttpCall(port, "GET", "/v1/ping");
  ASSERT_TRUE(get_v1.has_value());
  EXPECT_EQ(get_v1->status, 405);

  // An application-level error is still HTTP 200 with ok:false — the
  // transport succeeded, the request did not.
  std::optional<serving::HttpResponse> bad_method =
      serving::HttpCall(port, "POST", "/v1/definitely_not_a_method", "{}");
  ASSERT_TRUE(bad_method.has_value());
  EXPECT_EQ(bad_method->status, 200);
  EXPECT_NE(bad_method->body.find("\"ok\":false"), std::string::npos);

  // Raw garbage on the wire gets 400 and a closed connection.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_TRUE(serving::HttpWriteAll(fd, "NOT HTTP AT ALL\r\n\r\n"));
  std::string raw;
  char buf[4096];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(raw.find("HTTP/1.1 400"), std::string::npos) << raw;

  server.Stop();
}

TEST_F(HttpServerTest, AccessLogMatchesHistogramCounts) {
  options_.access_log_path = access_log_path_;
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  int port = server.http_port();

  // Latency histograms are process-global; delta against the counts at
  // test start so earlier in-process servers don't skew the comparison.
  obs::Registry& registry = obs::Registry::Global();
  uint64_t fast_before =
      registry.GetHistogram("serving.request.latency.us|lane=fast")
          .Data()
          .count;
  uint64_t slow_before =
      registry.GetHistogram("serving.request.latency.us|lane=slow")
          .Data()
          .count;

  // One fast-lane request over HTTP, one slow-lane compile, one fast-lane
  // error (a malformed compile) and one slow-lane error (an unknown
  // method).
  ASSERT_TRUE(serving::HttpCall(port, "POST", "/v1/ping", "{}").has_value());
  std::optional<serving::HttpResponse> compiled = serving::HttpCall(
      port, "POST", "/v1/compile",
      "{\"id\":2,\"m\":256,\"n\":256,\"k\":256,"
      "\"config\":{\"tb\":[64,64,32],\"warp\":[32,32,16],\"smem\":2}}");
  ASSERT_TRUE(compiled.has_value());
  std::optional<serving::HttpResponse> bad =
      serving::HttpCall(port, "POST", "/v1/compile", "{\"id\":3}");
  ASSERT_TRUE(bad.has_value());
  EXPECT_NE(bad->body.find("\"ok\":false"), std::string::npos);
  std::optional<serving::HttpResponse> unknown =
      serving::HttpCall(port, "POST", "/v1/frobnicate", "{\"id\":4}");
  ASSERT_TRUE(unknown.has_value());
  EXPECT_NE(unknown->body.find("unknown method"), std::string::npos);

  uint64_t fast_after =
      registry.GetHistogram("serving.request.latency.us|lane=fast")
          .Data()
          .count;
  uint64_t slow_after =
      registry.GetHistogram("serving.request.latency.us|lane=slow")
          .Data()
          .count;
  uint64_t completed = (fast_after - fast_before) + (slow_after - slow_before);
  EXPECT_EQ(completed, 4u);

  // Completion bookkeeping runs before the response is sent, so by the
  // time HttpCall returned, the access log holds every request.
  std::ifstream log(access_log_path_);
  ASSERT_TRUE(log.is_open());
  std::string line;
  uint64_t lines = 0;
  uint64_t error_lines = 0;
  while (std::getline(log, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_NE(line.find("\"id\":"), std::string::npos);
    EXPECT_NE(line.find("\"lane\":"), std::string::npos);
    EXPECT_NE(line.find("\"total_us\":"), std::string::npos);
    if (line.find("\"outcome\":\"error\"") != std::string::npos) {
      ++error_lines;
    }
  }
  EXPECT_EQ(lines, completed);
  EXPECT_EQ(error_lines, 2u);

  server.Stop();
}

// A keep-alive TCP connection to the daemon's HTTP port; -1 on failure.
int ConnectHttp(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    fd = -1;
  }
  return fd;
}

std::string PostRequest(const std::string& method, const std::string& body) {
  return "POST /v1/" + method + " HTTP/1.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

// The bodies of the next `count` responses on `fd`, in order; fewer if
// the connection ends first.
std::vector<std::string> ReadResponseBodies(int fd, size_t count) {
  std::vector<std::string> bodies;
  std::string raw;
  size_t at = 0;  // start of the first response not yet parsed
  char buf[65536];
  while (bodies.size() < count) {
    size_t header_end = raw.find("\r\n\r\n", at);
    if (header_end != std::string::npos) {
      size_t length_at = raw.find("Content-Length: ", at);
      if (length_at == std::string::npos || length_at > header_end) break;
      size_t length = std::strtoull(raw.c_str() + length_at + 16, nullptr, 10);
      size_t body_at = header_end + 4;
      if (raw.size() >= body_at + length) {
        bodies.push_back(raw.substr(body_at, length));
        at = body_at + length;
        continue;
      }
    }
    raw.erase(0, at);
    at = 0;
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  return bodies;
}

// Cache hits pipelined on one keep-alive connection are answered on the
// IO thread one after another, each exactly once and in order.
TEST_F(HttpServerTest, PipelinedCompileHitsEachGetOneResponse) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  int port = server.http_port();
  const std::string compile =
      ",\"m\":512,\"n\":512,\"k\":512,"
      "\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],\"smem\":2}}";
  std::optional<serving::HttpResponse> warm =
      serving::HttpCall(port, "POST", "/v1/compile", "{\"id\":0" + compile);
  ASSERT_TRUE(warm.has_value());
  ASSERT_NE(warm->body.find("\"ok\":true"), std::string::npos) << warm->body;

  obs::Counter& fast = obs::Registry::Global().GetCounter("serving.fast_lane");
  const uint64_t fast_before = fast.Value();
  int fd = ConnectHttp(port);
  ASSERT_GE(fd, 0);
  constexpr int kHits = 8;
  std::string burst;
  for (int id = 1; id <= kHits; ++id) {
    burst += PostRequest("compile", "{\"id\":" + std::to_string(id) + compile);
  }
  ASSERT_TRUE(serving::HttpWriteAll(fd, burst));
  std::vector<std::string> bodies = ReadResponseBodies(fd, kHits);
  ASSERT_EQ(bodies.size(), static_cast<size_t>(kHits));
  for (int id = 1; id <= kHits; ++id) {
    const std::string& body = bodies[static_cast<size_t>(id - 1)];
    EXPECT_EQ(body.rfind("{\"id\":" + std::to_string(id) + ",\"ok\":true", 0),
              0u)
        << body;
  }
  EXPECT_EQ(fast.Value() - fast_before, static_cast<uint64_t>(kHits));
  // A second response to any of them would be read here instead.
  ASSERT_TRUE(serving::HttpWriteAll(fd, PostRequest("ping", "{\"id\":99}")));
  std::vector<std::string> pong = ReadResponseBodies(fd, 1);
  ASSERT_EQ(pong.size(), 1u);
  EXPECT_NE(pong[0].find("\"id\":99"), std::string::npos) << pong[0];
  ::close(fd);
  server.Stop();
}

// Requests pipelined on one keep-alive connection behind a slow-lane
// compile are answered in request order: the IO thread parses the next
// request only once it has sent the slow lane's reply to the one before.
TEST_F(HttpServerTest, PipelinedSlowRequestsAreAnsweredInOrder) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  int fd = ConnectHttp(server.http_port());
  ASSERT_GE(fd, 0);
  // A request left unparsed fails the read instead of hanging it.
  timeval timeout{10, 0};
  ASSERT_EQ(
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
  auto compile = [](int id, int k) {
    return "{\"id\":" + std::to_string(id) + ",\"m\":512,\"n\":512,\"k\":" +
           std::to_string(k) +
           ",\"config\":{\"tb\":[128,128,32],\"warp\":[64,64,16],"
           "\"smem\":2}}";
  };
  obs::Counter& slow = obs::Registry::Global().GetCounter("serving.slow_lane");
  const uint64_t slow_before = slow.Value();
  ASSERT_TRUE(serving::HttpWriteAll(
      fd, PostRequest("compile", compile(1, 512)) +
              PostRequest("ping", "{\"id\":2}") +
              PostRequest("compile", compile(3, 640))));
  std::vector<std::string> bodies = ReadResponseBodies(fd, 3);
  ::close(fd);
  ASSERT_EQ(bodies.size(), 3u);
  for (int id = 1; id <= 3; ++id) {
    const std::string& body = bodies[static_cast<size_t>(id - 1)];
    EXPECT_EQ(body.rfind("{\"id\":" + std::to_string(id) + ",\"ok\":true", 0),
              0u)
        << body;
  }
  EXPECT_EQ(slow.Value() - slow_before, 2u);
  server.Stop();
}

// A pipelined burst far longer than one read, sent in one write, is
// answered in full on the IO thread. Its replies never touch the wake
// pipe, which is blocking: only the slow lane writes there, one byte each
// time its hand-off list turns non-empty. One read brings about a
// thousand of these requests, so a byte per reply would fill the pipe,
// and block the IO thread on it, long before the burst ends.
TEST_F(HttpServerTest, LongPipelinedBurstIsAnsweredInFull) {
  options_.flight_depth = 0;
  options_.client_metrics = false;
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  int fd = ConnectHttp(server.http_port());
  ASSERT_GE(fd, 0);
  constexpr size_t kRequests = 150000;
  std::string burst;
  for (size_t i = 0; i < kRequests; ++i) burst += PostRequest("ping", "{}");
  // Written from a second thread, so the replies are read while the
  // burst is still going out.
  bool sent = false;
  std::thread writer([&] { sent = serving::HttpWriteAll(fd, burst); });
  std::vector<std::string> bodies = ReadResponseBodies(fd, kRequests);
  writer.join();
  EXPECT_TRUE(sent);
  ASSERT_EQ(bodies.size(), kRequests);
  EXPECT_EQ(bodies.back(), "{\"id\":0,\"ok\":true,\"pong\":true}\n");
  ::close(fd);
  server.Stop();
}

// The same kind of burst written whole before any response is read, from
// one thread, on a socket with small buffers, then half-closed: the daemon
// keeps reading the burst while the responses it has not yet sent wait,
// so the write ends, and it parses the rest after the EOF, so every
// response then arrives.
TEST_F(HttpServerTest, BurstReadOnlyAfterItIsWrittenIsAnsweredInFull) {
  options_.flight_depth = 0;
  options_.client_metrics = false;
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  timeval timeout{10, 0};
  for (auto [option, bytes] : {std::pair{SO_SNDBUF, 8192},
                               std::pair{SO_RCVBUF, 65536}}) {
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, option, &bytes, sizeof(bytes)), 0);
  }
  for (int option : {SO_SNDTIMEO, SO_RCVTIMEO}) {
    ASSERT_EQ(
        ::setsockopt(fd, SOL_SOCKET, option, &timeout, sizeof(timeout)), 0);
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server.http_port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  constexpr size_t kRequests = 60000;
  std::string burst;
  for (size_t i = 0; i < kRequests; ++i) burst += PostRequest("ping", "{}");
  bool sent = serving::HttpWriteAll(fd, burst);
  if (!sent) ::close(fd);  // unblocks a stuck daemon
  ASSERT_TRUE(sent) << "the daemon stopped reading the burst";
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  std::vector<std::string> bodies = ReadResponseBodies(fd, kRequests);
  ASSERT_EQ(bodies.size(), kRequests);
  EXPECT_EQ(bodies.back(), "{\"id\":0,\"ok\":true,\"pong\":true}\n");
  ::close(fd);
  server.Stop();
}

TEST_F(HttpServerTest, InflightGaugeAndCompletionCounters) {
  serving::Server server(options_);
  ASSERT_TRUE(server.Start());
  int port = server.http_port();

  obs::Registry& registry = obs::Registry::Global();
  uint64_t requests_before =
      registry.GetCounter("serving.requests").Value();
  ASSERT_TRUE(serving::HttpCall(port, "POST", "/v1/ping", "{}").has_value());
  ASSERT_TRUE(serving::HttpCall(port, "POST", "/v1/ping", "{}").has_value());
  // Counters are bumped at completion: after the responses arrived, the
  // counter moved by exactly the number of completed requests and the
  // inflight gauge is back to zero.
  EXPECT_EQ(registry.GetCounter("serving.requests").Value(),
            requests_before + 2u);
  EXPECT_EQ(registry.GetGauge("serving.inflight").Value(), 0.0);

  server.Stop();
}

}  // namespace
}  // namespace alcop
