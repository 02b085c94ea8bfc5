#include "obs/flight.h"

#include <algorithm>

#include "obs/log.h"
#include "support/json.h"

namespace alcop {
namespace obs {

using support::JsonEscape;

std::string RequestRecordJson(const RequestRecord& rec) {
  // Appended piece by piece rather than streamed: with the access log on
  // this runs once per request, before the reply is sent.
  std::string out;
  out.reserve(320);
  auto str = [&out](const char* key, const std::string& value) {
    out += key;
    out += JsonEscape(value);
    out += '"';
  };
  auto num = [&out](const char* key, double value) {
    char buf[support::kJsonNumberMaxChars];
    out += key;
    out.append(buf, support::WriteJsonNumber(value, buf));
  };
  out += "{\"id\":";
  out += std::to_string(rec.id);
  str(",\"client\":\"", rec.client);
  out += ",\"client_id\":";
  out += std::to_string(rec.client_id);
  str(",\"method\":\"", rec.method);
  str(",\"op_key\":\"", rec.op_key);
  str(",\"lane\":\"", rec.lane);
  str(",\"outcome\":\"", rec.outcome);
  str(",\"transport\":\"", rec.transport);
  out += ",\"batch\":";
  out += std::to_string(rec.batch);
  out += ",\"arrival_ns\":";
  out += std::to_string(rec.arrival_ns);
  num(",\"queue_us\":", rec.queue_us);
  num(",\"service_us\":", rec.service_us);
  num(",\"total_us\":", rec.total_us);
  out += '}';
  return out;
}

FlightRecorder::FlightRecorder(size_t depth) : depth_(depth) {}

void FlightRecorder::Record(const RequestRecord& rec) {
  if (depth_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push_back(rec);
  while (ring_.size() > depth_) ring_.pop_front();
  ++total_;
}

std::vector<RequestRecord> FlightRecorder::Snapshot(
    size_t n, const Filter& filter) const {
  std::vector<RequestRecord> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = ring_.rbegin(); it != ring_.rend() && out.size() < n; ++it) {
    if (!filter.client.empty() && it->client != filter.client) continue;
    if (!filter.lane.empty() && it->lane != filter.lane) continue;
    if (!filter.outcome.empty() && it->outcome != filter.outcome) continue;
    out.push_back(*it);
  }
  return out;
}

uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  total_ = 0;
}

std::vector<std::pair<std::string, double>> FlattenSnapshot(
    const std::vector<MetricSnapshot>& snapshot) {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(snapshot.size());
  for (const MetricSnapshot& metric : snapshot) {
    if (metric.kind == MetricSnapshot::Kind::kHistogram) {
      out.emplace_back(metric.name + ".count",
                       static_cast<double>(metric.histogram.count));
      out.emplace_back(metric.name + ".sum", metric.histogram.sum);
    } else {
      out.emplace_back(metric.name, metric.value);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string FlattenSnapshotJson(const std::vector<MetricSnapshot>& snapshot) {
  LogFields fields;
  for (const auto& [name, value] : FlattenSnapshot(snapshot)) {
    fields.Num(name, value);
  }
  return fields.Object();
}

MetricsTimeSeries::MetricsTimeSeries(size_t depth) : depth_(depth) {}

void MetricsTimeSeries::Sample(int64_t t_ns,
                               const std::vector<MetricSnapshot>& snapshot) {
  if (depth_ == 0) return;
  Sample_ sample;
  sample.t_ns = t_ns;
  sample.values = FlattenSnapshot(snapshot);
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push_back(std::move(sample));
  while (ring_.size() > depth_) ring_.pop_front();
}

std::vector<std::string> MetricsTimeSeries::Names() const {
  std::vector<std::string> out;
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return out;
  out.reserve(ring_.back().values.size());
  for (const auto& [name, value] : ring_.back().values) {
    (void)value;
    out.push_back(name);
  }
  return out;
}

std::vector<MetricsTimeSeries::Point> MetricsTimeSeries::Series(
    const std::string& metric) const {
  std::vector<Point> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Sample_& sample : ring_) {
    auto it = std::lower_bound(
        sample.values.begin(), sample.values.end(), metric,
        [](const std::pair<std::string, double>& entry,
           const std::string& key) { return entry.first < key; });
    if (it != sample.values.end() && it->first == metric) {
      out.push_back(Point{sample.t_ns, it->second});
    }
  }
  return out;
}

size_t MetricsTimeSeries::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

void MetricsTimeSeries::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
}

}  // namespace obs
}  // namespace alcop
