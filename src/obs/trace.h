// Host-side span tracing: the "what was the compiler doing when" pillar
// of the observability layer (see DESIGN.md "Observability").
//
// Design rules:
//   - Tracing is explicitly enabled (SetTraceEnabled). While disabled, an
//     ALCOP_TRACE_SCOPE costs one relaxed atomic load and touches no
//     memory — the warm replay path stays zero-allocation (gated by
//     tests/obs_test.cc).
//   - While enabled, each thread appends finished spans to its own
//     fixed-capacity ring buffer (taken lazily on the thread's first
//     span); when the ring wraps, the oldest spans are overwritten and
//     counted in DroppedSpans(). No lock is taken on the record path
//     except the ring's own uncontended mutex, so instrumented code never
//     serializes against other threads.
//   - A thread that exits leaves its ring, spans and all, to the next
//     thread that starts tracing, which writes on from the ring's cursor.
//     Ring memory is bounded by the peak number of live tracing threads,
//     not by how many threads ever traced (a restarted daemon's lanes
//     reuse the rings of the last one's).
//   - Span names and categories are `const char*` and must point at
//     static storage (string literals): spans never own memory.
//   - Timestamps are steady-clock nanoseconds since the process trace
//     epoch (NowNanos) — the same clock the bench binaries time with, so
//     BENCH_*.json numbers and profiler spans are directly comparable.
#ifndef ALCOP_OBS_TRACE_H_
#define ALCOP_OBS_TRACE_H_

#include <cstdint>
#include <vector>

namespace alcop {
namespace obs {

// Nanoseconds since the process trace epoch (first use), steady clock.
int64_t NowNanos();

// Global tracing switch. Off by default.
bool TraceEnabled();
void SetTraceEnabled(bool enabled);

// One finished host-side span.
struct TraceSpan {
  const char* name = "";      // static string
  const char* category = "";  // static string (Chrome-trace `cat`)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread_id = 0;  // dense per-process id (0 = first tracing thread;
                           // a reused ring's new owner gets a new id)
  uint16_t depth = 0;      // nesting depth within the recording thread
};

// Snapshot of every recorded span across all threads, ordered by
// (start_ns, thread_id, depth) so the result is stable for a given
// recording. An exited thread's spans stay collectable until ClearTrace
// or until the thread that takes over its ring overwrites them (which
// counts them in DroppedSpans).
std::vector<TraceSpan> CollectTraceSpans();

// Drops all recorded spans (every thread's ring and the retired list)
// and zeroes the dropped-span counter. Does not change the enabled flag.
void ClearTrace();

// Spans lost to ring-buffer wrap-around since the last ClearTrace.
uint64_t DroppedSpans();

// Records one span directly (the macro below is the normal entry point).
// A no-op while tracing is disabled.
void RecordSpan(const char* name, const char* category, int64_t start_ns,
                int64_t end_ns);

// RAII span: samples the clock on construction and records on
// destruction. When tracing is disabled at construction time the scope is
// inert (no clock read, no record), so a scope that brackets a hot loop
// costs one predictable branch.
class TraceScope {
 public:
  TraceScope(const char* name, const char* category);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_;
  const char* category_;
  int64_t start_ns_;
  bool armed_;
};

// Wall-clock stopwatch on the trace clock — the bench binaries time with
// this instead of hand-rolled std::chrono so BENCH_*.json numbers and
// profiler spans come from one clock.
class Stopwatch {
 public:
  Stopwatch() : start_ns_(NowNanos()) {}
  void Restart() { start_ns_ = NowNanos(); }
  int64_t ElapsedNanos() const { return NowNanos() - start_ns_; }
  double Seconds() const {
    return static_cast<double>(ElapsedNanos()) / 1e9;
  }

 private:
  int64_t start_ns_;
};

}  // namespace obs
}  // namespace alcop

#define ALCOP_OBS_CONCAT_IMPL(a, b) a##b
#define ALCOP_OBS_CONCAT(a, b) ALCOP_OBS_CONCAT_IMPL(a, b)

// Traces the enclosing scope as `name` under Chrome-trace category
// `category`. Both must be string literals (static storage).
#define ALCOP_TRACE_SCOPE(name, category)                   \
  ::alcop::obs::TraceScope ALCOP_OBS_CONCAT(alcop_trace_,   \
                                            __LINE__)(name, category)

#endif  // ALCOP_OBS_TRACE_H_
