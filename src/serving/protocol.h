// alcopd wire protocol: length-prefixed JSON over a unix-domain socket.
//
// Every message — request or response — is one frame:
//
//   u32 payload length (host-endian, capped at kMaxFrameBytes) | payload
//
// sent by one system call whenever the socket has room for it, so the
// reader wakes once per frame, and every payload is one JSON object.
// Requests carry an integer "id" and a "method"; responses echo the id,
// so a client may pipeline many requests on one connection and match
// completions out of order (the open-loop latency bench does exactly
// that). Methods:
//
//   ping                       liveness probe
//   stats                      cache + tuning-store counters
//   debug                      a flight-recorder, time-series, trace or
//                              log view (the GET /debug/* schemas)
//   compile                    op+config -> KernelTiming (cache-routed)
//   profile                    compile plus PMU counters
//   tune                       search the schedule space (warm-started)
//   persist / load             save/load the on-disk cache
//   shutdown                   stop the daemon
//
// Request fields: op as {"family","batch","m","n","k"}, an explicit
// config as {"tb":[m,n,k],"warp":[m,n,k],"smem","reg","split_k",
// "raster","fusion","swizzle","async"} (all but "tb" optional), tune
// takes "trials", "warm" (default true) and "force", persist/load take
// "path", and debug takes "what" plus the n/client/lane/outcome/metric
// query parameters. Responses are {"id":..,"ok":true,...} or
// {"id":..,"ok":false,"error":"..."}.
//
// This header also hosts the minimal JSON value parser the daemon and
// client share. It is deliberately small (objects, arrays, strings with
// the standard escapes, \uXXXX decoded to UTF-8, doubles, bools, null) —
// enough to read back whatever support::JsonEscape writes, not a
// general-purpose parser. Numbers are read in place by std::from_chars
// (an optional '-', no '+', no hex, inf and nan accepted; out of range
// fails, subnormals parse), so parsing is linear in the document.
#ifndef ALCOP_SERVING_PROTOCOL_H_
#define ALCOP_SERVING_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace alcop {
namespace serving {

// Upper bound on one frame's payload: large enough for any tune response
// (a few KB), small enough that a corrupt length prefix cannot make the
// reader allocate gigabytes.
inline constexpr uint32_t kMaxFrameBytes = 16u * 1024 * 1024;

// Blocking frame IO on a connected socket. Both return false on EOF,
// error, or an over-sized length prefix (the connection should then be
// closed). Short reads/writes are resumed internally; EINTR is handled.
// WriteFrame sends prefix and payload in one writev (serving::Client).
bool ReadFrame(int fd, std::string* payload);
bool WriteFrame(int fd, const std::string& payload);

// Appends the frame for `payload`, prefix then payload, to `out`: how the
// daemon queues a reply that it then sends with one non-blocking send. An
// over-sized payload appends nothing and returns false.
bool AppendFrame(const std::string& payload, std::string* out);

enum class FrameParseResult {
  kNeedMore,  // buffer holds a prefix of a frame; read more
  kOk,        // one frame parsed; `consumed` bytes may be discarded
  kBad,       // the length prefix is over kMaxFrameBytes; close
};

// Parses one frame from the front of `buffer`, the non-blocking
// counterpart of ReadFrame: the daemon's IO thread appends whatever bytes
// poll() delivered and never waits for the rest of a frame.
FrameParseResult ParseFrame(std::string_view buffer, std::string* payload,
                            size_t* consumed);

// ---------------------------------------------------------------------------
// JSON values.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;

  // Object member lookup (nullptr when absent or not an object).
  const JsonValue* Find(const std::string& key) const;
  // Typed accessors with defaults (tolerant: wrong kind => default).
  double NumberOr(double fallback) const;
  bool BoolOr(bool fallback) const;
  const std::string& StringOr(const std::string& fallback) const;
};

// Parses exactly one JSON document (trailing whitespace allowed);
// nullopt on any syntax error.
std::optional<JsonValue> ParseJson(const std::string& text);

}  // namespace serving
}  // namespace alcop

#endif  // ALCOP_SERVING_PROTOCOL_H_
