// Flight recorder: fixed-budget retained history for the serving daemon
// (DESIGN.md "Flight recorder and debug surface"). Two rings:
//
//   - FlightRecorder keeps the last N *completed* request records — full
//     lifecycle stamps, client, lane, outcome — so "what were the last
//     requests before the tail spike" is answerable from a live process
//     (`GET /debug/requests`).
//   - MetricsTimeSeries keeps periodic flattened registry snapshots so
//     "what changed in the last 60 s" is answerable without an external
//     scraper (`GET /debug/timeseries`).
//
// Both are mutex-guarded deques sized at construction; memory is bounded
// by depth, never by traffic. Recording one request is a small copy under
// an uncontended lock — far off the hot path relative to the request's
// own queue/service time.
#ifndef ALCOP_OBS_FLIGHT_H_
#define ALCOP_OBS_FLIGHT_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace alcop {
namespace obs {

// One completed request, as retained by the flight recorder and printed
// by /debug/requests. alcopd's access log writes RequestRecordJson of the
// same record, so the two agree line for line by construction.
struct RequestRecord {
  uint64_t id = 0;
  std::string client;     // attributed identity ("anon" when unknown)
  int64_t client_id = 0;  // the request's own "id" field (0 when absent)
  std::string method;     // wire method ("compile", "tune", ...)
  std::string op_key;     // tuner::OpKey when the request names a workload
  std::string lane;       // "fast" | "slow"
  // "error" when the reply is ok:false; otherwise what the handler did:
  // compile "hit" | "compiled", profile "compiled", tune "stored" |
  // "search", and "ok" for every other method.
  std::string outcome;
  std::string transport;  // "unix" | "http"
  uint64_t batch = 0;     // slow-lane drain round (0 on the fast lane)
  int64_t arrival_ns = 0;
  // Microsecond timings, printed at precision 17.
  double queue_us = 0.0;
  double service_us = 0.0;
  double total_us = 0.0;
};

// `rec` as one JSON object (no trailing newline).
std::string RequestRecordJson(const RequestRecord& rec);

// Ring of the last `depth` completed requests. Thread-safe.
class FlightRecorder {
 public:
  explicit FlightRecorder(size_t depth);

  void Record(const RequestRecord& rec);

  // Empty filter fields match everything.
  struct Filter {
    std::string client;
    std::string lane;
    std::string outcome;
  };

  // Up to `n` matching records, most recent first.
  std::vector<RequestRecord> Snapshot(size_t n, const Filter& filter = {}) const;

  uint64_t total_recorded() const;
  size_t depth() const { return depth_; }
  void Clear();

 private:
  const size_t depth_;
  mutable std::mutex mu_;
  std::deque<RequestRecord> ring_;  // oldest at front
  uint64_t total_ = 0;
};

// One registry snapshot flattened to (name, value) pairs: counters,
// gauges and callbacks keep their value; histograms expand to
// `<name>.count` and `<name>.sum` so rates and means are derivable from
// two adjacent samples.
std::vector<std::pair<std::string, double>> FlattenSnapshot(
    const std::vector<MetricSnapshot>& snapshot);

// FlattenSnapshot as one JSON object, keys sorted: the "metrics" block of
// `alcop_cli profile --json` and of the watchdog's stall dump.
std::string FlattenSnapshotJson(const std::vector<MetricSnapshot>& snapshot);

// Ring of periodic flattened registry snapshots. Thread-safe.
class MetricsTimeSeries {
 public:
  explicit MetricsTimeSeries(size_t depth);

  void Sample(int64_t t_ns, const std::vector<MetricSnapshot>& snapshot);

  // Flattened metric names seen in the most recent sample, sorted.
  std::vector<std::string> Names() const;

  struct Point {
    int64_t t_ns = 0;
    double value = 0.0;
  };

  // All retained points for `metric`, oldest first (samples where the
  // metric did not exist yet are skipped).
  std::vector<Point> Series(const std::string& metric) const;

  size_t samples() const;
  size_t depth() const { return depth_; }
  void Clear();

 private:
  struct Sample_ {
    int64_t t_ns = 0;
    std::vector<std::pair<std::string, double>> values;  // sorted by name
  };

  const size_t depth_;
  mutable std::mutex mu_;
  std::deque<Sample_> ring_;  // oldest at front
};

}  // namespace obs
}  // namespace alcop

#endif  // ALCOP_OBS_FLIGHT_H_
