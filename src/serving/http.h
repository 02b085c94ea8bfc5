// Minimal HTTP/1.1 front end for alcopd (serving/server.cc): request
// parsing, response formatting, and a tiny blocking client used by the
// load bench and the tests.
//
// Scope is deliberately small — this is a daemon sidecar endpoint, not a
// web server: loopback traffic, GET/POST, Content-Length bodies only
// (no chunked transfer), hard caps on header and body size so a
// misbehaving peer cannot make the IO thread allocate unboundedly.
// Parsing is incremental: the IO thread appends whatever bytes poll()
// delivered to a per-connection buffer and asks the parser whether a
// full request is available yet, so slow clients and pipelined requests
// both work without dedicating a thread per connection.
#ifndef ALCOP_SERVING_HTTP_H_
#define ALCOP_SERVING_HTTP_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace alcop {
namespace serving {

// Request-line + header section cap (the body cap matches the unix
// socket's frame cap, serving/protocol.h kMaxFrameBytes).
inline constexpr size_t kMaxHttpHeaderBytes = 16 * 1024;
inline constexpr size_t kMaxHttpBodyBytes = 16u * 1024 * 1024;

struct HttpRequest {
  std::string method;   // "GET", "POST", ...
  std::string target;   // "/metrics", "/v1/compile", ...
  std::string version;  // "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  bool keep_alive = true;  // HTTP/1.1 default, honors Connection:

  // Case-insensitive header lookup; nullptr when absent.
  const std::string* FindHeader(const std::string& name) const;
};

enum class HttpParseResult {
  kNeedMore,  // buffer holds a prefix of a valid request; read more
  kOk,        // one request parsed; `consumed` bytes may be discarded
  kBad,       // malformed or over-limit; answer 400 and close
};

// Parses one request from the front of `buffer`. On kOk, `*consumed` is
// the byte count of the request (headers + body); the caller erases that
// prefix and may call again for pipelined requests. On kBad, `*error`
// names the defect.
HttpParseResult ParseHttpRequest(std::string_view buffer, HttpRequest* out,
                                 size_t* consumed, std::string* error);

const char* HttpStatusText(int status);

// Splits a request target into path and query ("/debug/requests?n=5" →
// "/debug/requests", "n=5"). No '?' leaves `*query` empty.
void SplitTarget(const std::string& target, std::string* path,
                 std::string* query);

// Decodes an application/x-www-form-urlencoded query string into ordered
// key/value pairs ("n=5&lane=fast"); %XX escapes and '+' are decoded in
// both keys and values, a key without '=' maps to "".
std::vector<std::pair<std::string, std::string>> ParseQuery(
    const std::string& query);

// First value for `key` in parsed query pairs; `fallback` when absent.
std::string QueryParam(
    const std::vector<std::pair<std::string, std::string>>& params,
    const std::string& key, const std::string& fallback = "");

// A full response with Content-Length and Connection headers. Pass
// extra headers as name/value pairs (e.g. cache headroom on /healthz).
std::string FormatHttpResponse(
    int status, const std::string& content_type, const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers = {},
    bool keep_alive = true);

// write(2) until done (EINTR-safe); false on error/EPIPE.
bool HttpWriteAll(int fd, const std::string& bytes);

// ---------------------------------------------------------------------------
// Blocking one-shot client (tests, bench, CI scrapes without curl).
// ---------------------------------------------------------------------------

struct HttpResponse {
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  const std::string* FindHeader(const std::string& name) const;
};

// Connects to 127.0.0.1:port, sends one request (Connection: close),
// reads to EOF and parses the response. nullopt on connect/IO/parse
// failure, when no byte arrives for 60 s, and when the body is shorter
// than its Content-Length. `extra_headers` are appended verbatim to the
// request (e.g. X-Alcop-Client for attribution tests).
std::optional<HttpResponse> HttpCall(
    int port, const std::string& method, const std::string& target,
    const std::string& body = "",
    const std::vector<std::pair<std::string, std::string>>& extra_headers = {});

}  // namespace serving
}  // namespace alcop

#endif  // ALCOP_SERVING_HTTP_H_
