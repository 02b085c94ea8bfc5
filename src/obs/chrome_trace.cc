#include "obs/chrome_trace.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "support/json.h"

namespace alcop {
namespace obs {

using support::JsonEscape;

namespace {

// Fixed-format number: deterministic and fractional-cycle safe. %.3f
// keeps nanosecond resolution in the microsecond field.
std::string Num(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return buf;
}

}  // namespace

void ChromeTraceWriter::AddProcessName(int pid, const std::string& name) {
  std::ostringstream out;
  out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
      << ", \"tid\": 0, \"args\": {\"name\": \"" << JsonEscape(name)
      << "\"}}";
  events_.push_back(out.str());
}

void ChromeTraceWriter::AddThreadName(int pid, int tid,
                                      const std::string& name) {
  std::ostringstream out;
  out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " << pid
      << ", \"tid\": " << tid << ", \"args\": {\"name\": \"" << JsonEscape(name)
      << "\"}}";
  events_.push_back(out.str());
}

void ChromeTraceWriter::AddCompleteEvent(const std::string& name,
                                         const std::string& category, int pid,
                                         int tid, double ts_us, double dur_us) {
  std::ostringstream out;
  out << "{\"name\": \"" << JsonEscape(name) << "\", \"cat\": \""
      << JsonEscape(category) << "\", \"ph\": \"X\", \"ts\": " << Num(ts_us)
      << ", \"dur\": " << Num(dur_us) << ", \"pid\": " << pid
      << ", \"tid\": " << tid << "}";
  events_.push_back(out.str());
}

std::string ChromeTraceWriter::ToJson() const {
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  for (size_t i = 0; i < events_.size(); ++i) {
    out << events_[i];
    if (i + 1 < events_.size()) out << ",";
    out << "\n";
  }
  out << "]}\n";
  return out.str();
}

void AppendHostSpans(ChromeTraceWriter* writer,
                     const std::vector<TraceSpan>& spans) {
  constexpr int kHostPid = 1;
  writer->AddProcessName(kHostPid, "alcop host");
  uint32_t max_thread = 0;
  for (const TraceSpan& span : spans) {
    if (span.thread_id > max_thread) max_thread = span.thread_id;
  }
  if (!spans.empty()) {
    for (uint32_t t = 0; t <= max_thread; ++t) {
      writer->AddThreadName(kHostPid, static_cast<int>(t),
                            t == 0 ? "main" : "pool-" + std::to_string(t));
    }
  }
  for (const TraceSpan& span : spans) {
    writer->AddCompleteEvent(span.name, span.category, kHostPid,
                             static_cast<int>(span.thread_id),
                             static_cast<double>(span.start_ns) / 1e3,
                             static_cast<double>(span.end_ns - span.start_ns) /
                                 1e3);
  }
}

void AppendSimTimeline(ChromeTraceWriter* writer, const sim::Timeline& timeline,
                       int num_warps) {
  constexpr int kGpuPid = 2;
  writer->AddProcessName(kGpuPid, "simulated GPU (1 us = 1 cycle)");
  // Track id: tb * (num_warps + 1) + warp, with the extra row per
  // threadblock holding the background memory-pipe transfers.
  int stride = num_warps + 1;
  int max_tb = -1;
  for (const sim::TimelineSpan& span : timeline.spans) {
    if (span.tb > max_tb) max_tb = span.tb;
  }
  for (int tb = 0; tb <= max_tb; ++tb) {
    for (int warp = 0; warp < num_warps; ++warp) {
      writer->AddThreadName(kGpuPid, tb * stride + warp,
                            "tb" + std::to_string(tb) + " warp" +
                                std::to_string(warp));
    }
    writer->AddThreadName(kGpuPid, tb * stride + num_warps,
                          "tb" + std::to_string(tb) + " mem pipe");
  }
  for (const sim::TimelineSpan& span : timeline.spans) {
    int warp = span.warp < 0 ? num_warps : span.warp;
    writer->AddCompleteEvent(sim::SpanKindName(span.kind),
                             sim::SpanKindName(span.kind), kGpuPid,
                             span.tb * stride + warp, span.start,
                             span.end - span.start);
  }
}

}  // namespace obs
}  // namespace alcop
