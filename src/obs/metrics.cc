#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

#include "support/check.h"

namespace alcop {
namespace obs {

namespace {

// Lock-free max/add for atomic<double> via CAS (fetch_add on
// atomic<double> is C++20 but not universally lowered well; CAS is
// portable and the loop is 1 iteration when uncontended).
void AtomicAdd(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (current < value && !target->compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

int BucketOf(double value) {
  if (!(value >= 1.0)) return 0;  // [0,1) and any non-finite/negative junk
  int exp = std::ilogb(value) + 1;
  return exp >= Histogram::kBuckets ? Histogram::kBuckets - 1 : exp;
}

}  // namespace

static_assert(sizeof(HistogramData{}.buckets) / sizeof(uint64_t) ==
                  Histogram::kBuckets,
              "HistogramData bucket array must match Histogram::kBuckets");

void Gauge::Add(double delta) { AtomicAdd(&value_, delta); }

void Histogram::Observe(double value) {
  buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, value);
  AtomicMax(&max_, value);
}

HistogramData Histogram::Data() const {
  HistogramData data;
  for (int i = 0; i < kBuckets; ++i) {
    data.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  data.count = count_.load(std::memory_order_relaxed);
  data.sum = sum_.load(std::memory_order_relaxed);
  data.max = max_.load(std::memory_order_relaxed);
  return data;
}

namespace {

// Bucket i covers [lower, upper); the topmost populated bucket only
// reaches the observed max, not its nominal power-of-two edge (and a
// sub-max observed max never pushes `upper` below `lower`, so the
// interpolated value stays inside the bucket bounds).
void BucketEdges(const HistogramData& data, int i, bool topmost,
                 double* lower, double* upper) {
  *lower = i == 0 ? 0.0 : std::ldexp(1.0, i - 1);
  *upper = std::ldexp(1.0, i);
  if (topmost && *upper > data.max) {
    *upper = data.max < *lower ? *lower : data.max;
  }
}

}  // namespace

double HistogramQuantile(const HistogramData& data, double q) {
  if (data.count == 0 || std::isnan(q)) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  int first = -1;
  int last = -1;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    if (data.buckets[i] == 0) continue;
    if (first < 0) first = i;
    last = i;
  }
  // count > 0 with no populated bucket can only be a racing snapshot;
  // answer 0 rather than inventing a value.
  if (first < 0) return 0.0;
  double lower = 0.0;
  double upper = 0.0;
  if (q == 0.0) {  // minimum: lower edge of the first populated bucket
    BucketEdges(data, first, first == last, &lower, &upper);
    return lower;
  }
  if (q == 1.0) {  // maximum: upper edge of the last populated bucket
    BucketEdges(data, last, true, &lower, &upper);
    return upper;
  }
  double rank = q * static_cast<double>(data.count);
  uint64_t cumulative = 0;
  for (int i = first; i <= last; ++i) {
    uint64_t in_bucket = data.buckets[i];
    if (in_bucket == 0) continue;
    double below = static_cast<double>(cumulative);
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) < rank) continue;
    BucketEdges(data, i, i == last, &lower, &upper);
    double fraction = (rank - below) / static_cast<double>(in_bucket);
    double value = lower + fraction * (upper - lower);
    if (value < lower) value = lower;
    if (value > upper) value = upper;
    return value;
  }
  BucketEdges(data, last, true, &lower, &upper);
  return upper;
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

struct Registry::Impl {
  mutable std::mutex mu;
  // std::map: node stability guarantees returned references stay valid
  // forever.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
  std::map<std::string, std::function<double()>> callbacks;
  // # HELP-style descriptions, keyed by metric name. First non-empty
  // registration wins; metrics registered without help are absent.
  std::map<std::string, std::string> help;

  void SetHelp(const std::string& name, const std::string& text) {
    if (!text.empty() && help.count(name) == 0) help[name] = text;
  }

  std::string HelpFor(const std::string& name) const {
    auto it = help.find(name);
    return it == help.end() ? std::string() : it->second;
  }

  void CheckUnique(const std::string& name, const char* kind) const {
    int owners = (counters.count(name) ? 1 : 0) + (gauges.count(name) ? 1 : 0) +
                 (histograms.count(name) ? 1 : 0) +
                 (callbacks.count(name) ? 1 : 0);
    ALCOP_CHECK_EQ(owners, 0)
        << "metric '" << name << "' already registered with another kind "
        << "(requested " << kind << ")";
  }
};

Registry::Impl& Registry::impl() const {
  static Impl* impl = new Impl();  // leaked: outlives all threads
  return *impl;
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();
  return *registry;
}

Counter& Registry::GetCounter(const std::string& name,
                              const std::string& help) {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.counters.find(name);
  if (it == state.counters.end()) {
    state.CheckUnique(name, "counter");
    it = state.counters.emplace(name, std::make_unique<Counter>()).first;
  }
  state.SetHelp(name, help);
  return *it->second;
}

Gauge& Registry::GetGauge(const std::string& name, const std::string& help) {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.gauges.find(name);
  if (it == state.gauges.end()) {
    state.CheckUnique(name, "gauge");
    it = state.gauges.emplace(name, std::make_unique<Gauge>()).first;
  }
  state.SetHelp(name, help);
  return *it->second;
}

Histogram& Registry::GetHistogram(const std::string& name,
                                  const std::string& help) {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.histograms.find(name);
  if (it == state.histograms.end()) {
    state.CheckUnique(name, "histogram");
    it = state.histograms.emplace(name, std::make_unique<Histogram>()).first;
  }
  state.SetHelp(name, help);
  return *it->second;
}

void Registry::RegisterCallback(const std::string& name,
                                std::function<double()> fn,
                                const std::string& help) {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.callbacks.count(name) == 0) state.CheckUnique(name, "callback");
  state.callbacks[name] = std::move(fn);
  state.SetHelp(name, help);
}

std::vector<MetricSnapshot> Registry::Snapshot() const {
  Impl& state = impl();
  // Callbacks run outside the registry lock: they may lock subsystem
  // state (e.g. the sim cache) and must not nest under the registry
  // mutex.
  std::map<std::string, double> callback_values;
  {
    std::map<std::string, std::function<double()>> callbacks;
    {
      std::lock_guard<std::mutex> lock(state.mu);
      callbacks = state.callbacks;
    }
    for (const auto& [name, fn] : callbacks) callback_values[name] = fn();
  }
  std::vector<MetricSnapshot> out;
  std::lock_guard<std::mutex> lock(state.mu);
  out.reserve(state.counters.size() + state.gauges.size() +
              callback_values.size() + state.histograms.size());
  auto push = [&](MetricSnapshot::Kind kind, const std::string& name) {
    MetricSnapshot snap;
    snap.kind = kind;
    snap.name = name;
    snap.help = state.HelpFor(name);
    out.push_back(std::move(snap));
    return &out.back();
  };
  for (const auto& [name, counter] : state.counters) {
    push(MetricSnapshot::Kind::kCounter, name)->value =
        static_cast<double>(counter->Value());
  }
  for (const auto& [name, gauge] : state.gauges) {
    push(MetricSnapshot::Kind::kGauge, name)->value = gauge->Value();
  }
  for (const auto& [name, value] : callback_values) {
    push(MetricSnapshot::Kind::kCallback, name)->value = value;
  }
  for (const auto& [name, hist] : state.histograms) {
    push(MetricSnapshot::Kind::kHistogram, name)->histogram = hist->Data();
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

}  // namespace obs
}  // namespace alcop
