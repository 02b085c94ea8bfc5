// Process-wide metrics registry: named counters, gauges and histograms
// behind one `alcop::obs::Registry`, read as one name-sorted Snapshot().
// This is the second pillar of the observability layer (DESIGN.md
// "Observability"): the sim-cache counters, thread-pool stats and tuner
// stats all surface here instead of each subsystem growing its own
// ad-hoc snapshot struct.
//
// Usage pattern on hot paths — resolve once, then update lock-free:
//
//   static obs::Counter& trials =
//       obs::Registry::Global().GetCounter("tuner.trials");
//   trials.Increment();
//
// Counters and gauges are single relaxed atomics; histograms are one
// relaxed atomic add into a power-of-two bucket. Metrics are never
// removed, so returned references stay valid for the process lifetime.
// Subsystems whose state cannot live in a plain counter (e.g. cache
// entry counts that are the size of a locked map) register a callback
// gauge instead; callbacks run only when a snapshot is taken.
#ifndef ALCOP_OBS_METRICS_H_
#define ALCOP_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace alcop {
namespace obs {

// Monotonic counter (resettable for tests/benches).
class Counter {
 public:
  void Increment() { Add(1); }
  void Add(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-written double value. Add() makes it usable as an up/down gauge
// (e.g. serving.inflight: +1 at dispatch, -1 at completion).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta);
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Plain-value copy of one histogram's state: what snapshots, the
// Prometheus exporter and quantile estimation work from.
struct HistogramData {
  uint64_t buckets[64] = {};
  uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;
};

// Power-of-two-bucketed histogram of non-negative samples: bucket i
// counts samples in [2^(i-1), 2^i) (bucket 0: [0, 1)). Tracks count,
// sum and max so readers can report mean and tail without storing samples.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Observe(double value);
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(int bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }
  // Relaxed snapshot of all buckets + count/sum/max (each field is
  // individually coherent; the set may straddle concurrent Observes).
  HistogramData Data() const;
  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

// Quantile estimate (q in [0,1]) from power-of-two buckets: walks the
// cumulative distribution to the target rank and interpolates linearly
// inside the bucket, clamped to the observed max. 0 when empty.
double HistogramQuantile(const HistogramData& data, double q);

// One registry entry as seen by a snapshot reader or the Prometheus
// exporter. `name` is the full registered name, which by convention may
// carry `|key=value` label suffixes (e.g.
// "serving.request.latency.us|lane=fast"); FlattenSnapshot (obs/flight.h)
// keeps it verbatim, the Prometheus renderer splits it into a metric
// family plus labels.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kCallback, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;
  std::string help;         // registered help text ("" when none given)
  double value = 0.0;       // counter/gauge/callback value
  HistogramData histogram;  // kHistogram only
};

class Registry {
 public:
  // The process-wide registry (leaked, outlives all threads).
  static Registry& Global();

  // Finds or creates the named metric. A name addresses exactly one
  // metric kind; requesting it as a different kind throws CheckError.
  // `help` is # HELP-style description metadata recorded at the
  // registration site (first non-empty string wins; "" leaves any
  // existing help untouched) and surfaces in the Prometheus exposition.
  Counter& GetCounter(const std::string& name, const std::string& help = "");
  Gauge& GetGauge(const std::string& name, const std::string& help = "");
  Histogram& GetHistogram(const std::string& name,
                          const std::string& help = "");

  // Registers a read-on-snapshot gauge backed by `fn` (re-registering a name
  // replaces the callback; used by subsystems whose value is computed).
  void RegisterCallback(const std::string& name, std::function<double()> fn,
                        const std::string& help = "");

  // Every registered metric with its current value, sorted by name.
  // Callbacks are evaluated outside the registry lock.
  std::vector<MetricSnapshot> Snapshot() const;

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace obs
}  // namespace alcop

#endif  // ALCOP_OBS_METRICS_H_
