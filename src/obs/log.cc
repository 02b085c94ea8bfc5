#include "obs/log.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <sstream>

#include "support/json.h"

namespace alcop {
namespace obs {

using support::JsonEscape;
using support::JsonNumber;

namespace {

char Lower(char c) { return c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c; }

std::string LowerCopy(const std::string& text) {
  std::string out = text;
  for (char& c : out) c = Lower(c);
  return out;
}

}  // namespace

LogLevel ParseLogLevel(const std::string& text, LogLevel fallback) {
  std::string lower = LowerCopy(text);
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  if (lower == "off" || lower == "none") return LogLevel::kOff;
  return fallback;
}

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "info";
}

LogFields& LogFields::Str(const std::string& key, const std::string& value) {
  fragment_ += ",\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"";
  return *this;
}

LogFields& LogFields::Num(const std::string& key, double value) {
  fragment_ += ",\"" + JsonEscape(key) + "\":" + JsonNumber(value);
  return *this;
}

LogFields& LogFields::Int(const std::string& key, int64_t value) {
  fragment_ += ",\"" + JsonEscape(key) + "\":" + std::to_string(value);
  return *this;
}

LogFields& LogFields::Uint(const std::string& key, uint64_t value) {
  fragment_ += ",\"" + JsonEscape(key) + "\":" + std::to_string(value);
  return *this;
}

LogFields& LogFields::Bool(const std::string& key, bool value) {
  fragment_ += ",\"" + JsonEscape(key) + "\":" + (value ? "true" : "false");
  return *this;
}

LogFields& LogFields::Raw(const std::string& key, const std::string& json) {
  fragment_ += ",\"" + JsonEscape(key) + "\":" + json;
  return *this;
}

std::string LogFields::Object() const {
  return fragment_.empty() ? "{}" : "{" + fragment_.substr(1) + "}";
}

struct StructuredLog::Impl {
  std::atomic<int> level{static_cast<int>(LogLevel::kInfo)};
  std::atomic<uint64_t> total{0};
  std::atomic<uint64_t> dropped{0};

  mutable std::mutex mu;
  size_t ring_depth = 1024;
  std::deque<std::string> ring;  // oldest at front
  std::FILE* file = nullptr;
  bool stderr_echo = false;
};

StructuredLog& StructuredLog::Global() {
  static StructuredLog* global = [] {
    auto* log = new StructuredLog();
    const char* env = std::getenv("ALCOP_LOG_LEVEL");
    if (env != nullptr) {
      log->SetLevel(ParseLogLevel(env, LogLevel::kInfo));
    }
    return log;
  }();
  return *global;
}

StructuredLog::Impl& StructuredLog::impl() const {
  static Impl* impl = new Impl();
  return *impl;
}

LogLevel StructuredLog::level() const {
  return static_cast<LogLevel>(impl().level.load(std::memory_order_relaxed));
}

void StructuredLog::SetLevel(LogLevel level) {
  impl().level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void StructuredLog::SetRingDepth(size_t depth) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  i.ring_depth = depth;
  i.ring.clear();
}

void StructuredLog::SetStderrEcho(bool enabled) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  i.stderr_echo = enabled;
}

bool StructuredLog::OpenFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "a");
  if (file == nullptr) return false;
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  if (i.file != nullptr) std::fclose(i.file);
  i.file = file;
  return true;
}

void StructuredLog::CloseFile() {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  if (i.file != nullptr) {
    std::fclose(i.file);
    i.file = nullptr;
  }
}

void StructuredLog::Write(LogLevel level, const std::string& component,
                          const std::string& message,
                          const std::string& fields) {
  Impl& i = impl();
  if (static_cast<int>(level) < i.level.load(std::memory_order_relaxed)) {
    return;
  }
  if (level == LogLevel::kOff) return;
  // Wall-clock, not the trace epoch: log lines must be meaningful next
  // to other machines' logs and across daemon restarts.
  int64_t ts_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count();
  std::ostringstream line;
  line << "{\"ts_ns\":" << ts_ns << ",\"level\":\"" << LogLevelName(level)
       << "\",\"component\":\"" << JsonEscape(component) << "\",\"msg\":\""
       << JsonEscape(message) << "\"" << fields << "}";
  std::string rendered = line.str();
  i.total.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(i.mu);
  if (i.ring_depth > 0) {
    i.ring.push_back(rendered);
    while (i.ring.size() > i.ring_depth) {
      i.ring.pop_front();
      i.dropped.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (i.file != nullptr) {
    std::fprintf(i.file, "%s\n", rendered.c_str());
    std::fflush(i.file);
  }
  if (i.stderr_echo) {
    std::fprintf(stderr, "%s\n", rendered.c_str());
  }
}

std::vector<std::string> StructuredLog::Recent(size_t n) const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  size_t count = i.ring.size() < n ? i.ring.size() : n;
  std::vector<std::string> out;
  out.reserve(count);
  for (size_t k = i.ring.size() - count; k < i.ring.size(); ++k) {
    out.push_back(i.ring[k]);
  }
  return out;
}

uint64_t StructuredLog::total_lines() const {
  return impl().total.load(std::memory_order_relaxed);
}

uint64_t StructuredLog::dropped_lines() const {
  return impl().dropped.load(std::memory_order_relaxed);
}

void StructuredLog::Clear() {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  i.ring.clear();
  i.total.store(0, std::memory_order_relaxed);
  i.dropped.store(0, std::memory_order_relaxed);
}

void Log(LogLevel level, const std::string& component,
         const std::string& message, const LogFields& fields) {
  StructuredLog::Global().Write(level, component, message, fields.Json());
}

}  // namespace obs
}  // namespace alcop
