#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>

#include "obs/metrics.h"

namespace alcop {
namespace obs {

namespace {

std::atomic<bool> g_enabled{false};

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t Epoch() {
  static const int64_t epoch = SteadyNowNs();
  return epoch;
}

// Fixed per-thread ring capacity: 16k spans ≈ 0.66 MB per tracing
// thread, enough for a full profile run of the CLI; overflow drops the
// oldest spans and is surfaced through DroppedSpans().
constexpr size_t kRingCapacity = 1 << 14;

struct ThreadRing {
  std::mutex mu;
  std::vector<TraceSpan> spans;  // ring storage, reserved on creation
  size_t next = 0;               // write cursor (wraps at kRingCapacity)
  uint32_t thread_id = 0;  // of the owner, or of the last one
  uint16_t depth = 0;      // live nesting depth of the owning thread
};

// Global registry of rings. Rings are never destroyed: a thread that
// exits hands its ring to `retired`, spans and all, so they survive
// collection, and the next thread that starts tracing takes it over and
// writes on from its cursor. Ring memory is thus bounded by the peak
// number of live tracing threads. Both the registry and the rings are
// leaked like the sim cache so no destructor ordering issue can bite at
// process exit.
struct RingRegistry {
  std::mutex mu;
  std::vector<ThreadRing*> rings;    // every ring, owned or retired
  std::vector<ThreadRing*> retired;  // rings whose thread has exited
  std::atomic<uint64_t> dropped{0};
  uint32_t next_thread_id = 0;
};

RingRegistry& GlobalRegistry() {
  static RingRegistry* registry = new RingRegistry();
  return *registry;
}

// A thread's claim on its ring, taken on its first span and given back
// when the thread exits.
struct RingLease {
  ThreadRing* ring = nullptr;

  ~RingLease() {
    if (ring == nullptr) return;
    RingRegistry& reg = GlobalRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.retired.push_back(ring);
  }
};

ThreadRing* AcquireRing() {
  RingRegistry& reg = GlobalRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  ThreadRing* ring = nullptr;
  if (!reg.retired.empty()) {
    ring = reg.retired.back();
    reg.retired.pop_back();
  } else {
    ring = new ThreadRing();
    ring->spans.reserve(kRingCapacity);
    reg.rings.push_back(ring);
  }
  ring->thread_id = reg.next_thread_id++;
  ring->depth = 0;
  return ring;
}

ThreadRing& LocalRing() {
  thread_local RingLease lease;
  if (lease.ring == nullptr) lease.ring = AcquireRing();
  return *lease.ring;
}

}  // namespace

int64_t NowNanos() { return SteadyNowNs() - Epoch(); }

bool TraceEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetTraceEnabled(bool enabled) {
  Epoch();  // pin the epoch before the first span
  // Ring-buffer overflow is observable as a metric: golden sweeps assert
  // the gauge stays at zero (dropped spans mean a silently truncated
  // trace). Registered here — lazily, once — so merely linking the obs
  // library never touches the registry.
  static std::once_flag registered;
  std::call_once(registered, [] {
    Registry::Global().RegisterCallback(
        "obs.trace.dropped",
        [] { return static_cast<double>(DroppedSpans()); },
        "Spans lost to ring-buffer wrap-around since the last clear.");
  });
  g_enabled.store(enabled, std::memory_order_relaxed);
}

void RecordSpan(const char* name, const char* category, int64_t start_ns,
                int64_t end_ns) {
  if (!TraceEnabled()) return;
  ThreadRing& ring = LocalRing();
  TraceSpan span;
  span.name = name;
  span.category = category;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.thread_id = ring.thread_id;
  span.depth = ring.depth;
  bool was_full = false;
  {
    std::lock_guard<std::mutex> lock(ring.mu);
    if (ring.spans.size() < kRingCapacity) {
      ring.spans.push_back(span);
    } else {
      ring.spans[ring.next] = span;
      was_full = true;
    }
    ring.next = (ring.next + 1) % kRingCapacity;
  }
  if (was_full) {
    GlobalRegistry().dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<TraceSpan> CollectTraceSpans() {
  RingRegistry& reg = GlobalRegistry();
  std::vector<ThreadRing*> rings;
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    rings = reg.rings;
  }
  std::vector<TraceSpan> out;
  for (ThreadRing* ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    out.insert(out.end(), ring->spans.begin(), ring->spans.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                     if (a.thread_id != b.thread_id) {
                       return a.thread_id < b.thread_id;
                     }
                     return a.depth < b.depth;
                   });
  return out;
}

void ClearTrace() {
  RingRegistry& reg = GlobalRegistry();
  std::vector<ThreadRing*> rings;
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    rings = reg.rings;
  }
  for (ThreadRing* ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    ring->spans.clear();
    ring->next = 0;
  }
  reg.dropped.store(0, std::memory_order_relaxed);
}

uint64_t DroppedSpans() {
  return GlobalRegistry().dropped.load(std::memory_order_relaxed);
}

TraceScope::TraceScope(const char* name, const char* category)
    : name_(name), category_(category), start_ns_(0), armed_(TraceEnabled()) {
  if (armed_) {
    start_ns_ = NowNanos();
    ++LocalRing().depth;
  }
}

TraceScope::~TraceScope() {
  if (armed_) {
    ThreadRing& ring = LocalRing();
    if (ring.depth > 0) --ring.depth;
    RecordSpan(name_, category_, start_ns_, NowNanos());
  }
}

}  // namespace obs
}  // namespace alcop
