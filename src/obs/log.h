// Leveled structured logging: the daemon-facing "what happened and when"
// pillar of the observability layer (DESIGN.md "Flight recorder and debug
// surface"). Every line is one JSONL object
//
//   {"ts_ns":123,"level":"info","component":"serving","msg":"started",...}
//
// rendered at Write() time and kept in a fixed-depth in-memory ring so a
// live daemon can answer `GET /debug/log?n=K` without any file access.
// Sinks are optional: an append-only file (OpenFile) and a stderr echo
// (the CLI turns the echo on so `alcopd` keeps its familiar terminal
// chatter; library/test use leaves it off).
//
// Levels follow the usual ladder (debug < info < warn < error < off); the
// threshold initializes from ALCOP_LOG_LEVEL on first use and can be
// changed at runtime. A suppressed Write costs one relaxed atomic load.
//
// Extra fields ride along as a pre-rendered JSON fragment built with
// LogFields:
//
//   Log(LogLevel::kWarn, "serving", "slow lane stalled",
//       LogFields().Num("age_us", age).Int("depth", depth));
#ifndef ALCOP_OBS_LOG_H_
#define ALCOP_OBS_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

namespace alcop {
namespace obs {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

// "debug"/"info"/"warn"/"error"/"off" (case-insensitive; also accepts
// "warning"). Anything else returns `fallback`.
LogLevel ParseLogLevel(const std::string& text, LogLevel fallback);
const char* LogLevelName(LogLevel level);

// Fluent builder for the extra-field fragment of a log line. Each call
// appends `,"key":value`; Json() returns the accumulated fragment ready
// to splice before the closing brace.
class LogFields {
 public:
  LogFields& Str(const std::string& key, const std::string& value);
  LogFields& Num(const std::string& key, double value);
  LogFields& Int(const std::string& key, int64_t value);
  LogFields& Uint(const std::string& key, uint64_t value);
  LogFields& Bool(const std::string& key, bool value);
  // Splices `json` (an already-valid JSON value) verbatim.
  LogFields& Raw(const std::string& key, const std::string& json);
  const std::string& Json() const { return fragment_; }
  // The same fields as one JSON object ("{}" when there are none).
  std::string Object() const;

 private:
  std::string fragment_;
};

// Process-wide structured logger. All methods are thread-safe.
class StructuredLog {
 public:
  // The process-wide logger (leaked, outlives all threads). Level starts
  // from ALCOP_LOG_LEVEL (default info) on first access.
  static StructuredLog& Global();

  LogLevel level() const;
  void SetLevel(LogLevel level);

  // Resizes the in-memory ring (drops retained lines). Depth 0 disables
  // retention; Write still hits the sinks.
  void SetRingDepth(size_t depth);

  // Mirrors every emitted line to stderr (off by default).
  void SetStderrEcho(bool enabled);

  // Opens (appends to) a JSONL file sink; returns false and leaves the
  // previous sink untouched on failure. CloseFile flushes and detaches.
  bool OpenFile(const std::string& path);
  void CloseFile();

  // Emits one line if `level` clears the threshold. `fields` is a
  // LogFields fragment (or "" for none); `component` and `message` are
  // escaped, the fragment is spliced verbatim.
  void Write(LogLevel level, const std::string& component,
             const std::string& message, const std::string& fields = "");

  // Up to `n` most recent retained lines, oldest first.
  std::vector<std::string> Recent(size_t n) const;

  uint64_t total_lines() const;    // lines emitted past the threshold
  uint64_t dropped_lines() const;  // retained lines lost to ring wrap

  // Drops retained lines and zeroes the counters (tests only).
  void Clear();

 private:
  StructuredLog() = default;
  struct Impl;
  Impl& impl() const;
};

// Convenience wrapper over StructuredLog::Global().Write().
void Log(LogLevel level, const std::string& component,
         const std::string& message, const LogFields& fields = LogFields());

}  // namespace obs
}  // namespace alcop

#endif  // ALCOP_OBS_LOG_H_
