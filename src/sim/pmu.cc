#include "sim/pmu.h"

#include <cstdio>
#include <sstream>

#include "support/json.h"

namespace alcop {
namespace sim {

using support::JsonNumber;

void AddScaledPmu(PmuCounters* dst, const PmuCounters& src, int64_t factor) {
  const double f = static_cast<double>(factor);
  dst->tensor_active_cycles += src.tensor_active_cycles * f;
  dst->lds_active_cycles += src.lds_active_cycles * f;
  dst->copy_issue_cycles += src.copy_issue_cycles * f;
  dst->fill_cycles += src.fill_cycles * f;
  dst->wait_stall_cycles += src.wait_stall_cycles * f;
  dst->acquire_stall_cycles += src.acquire_stall_cycles * f;
  dst->barrier_stall_cycles += src.barrier_stall_cycles * f;
  dst->exposed_copy_cycles += src.exposed_copy_cycles * f;
  dst->llc_read_bytes += src.llc_read_bytes * f;
  dst->dram_read_bytes += src.dram_read_bytes * f;
  dst->lds_read_bytes += src.lds_read_bytes * f;
  dst->dram_write_bytes += src.dram_write_bytes * f;
  dst->cp_async_bytes += src.cp_async_bytes * f;
  dst->flops += src.flops * f;
  dst->llc_read_transactions += src.llc_read_transactions * factor;
  dst->dram_read_transactions += src.dram_read_transactions * factor;
  dst->lds_read_transactions += src.lds_read_transactions * factor;
  dst->dram_write_transactions += src.dram_write_transactions * factor;
  dst->cp_async_transactions += src.cp_async_transactions * factor;
  dst->barrier_arrivals += src.barrier_arrivals * factor;
  dst->wait_parks += src.wait_parks * factor;
  dst->acquire_parks += src.acquire_parks * factor;
  for (int b = 0; b < kPmuDepthBuckets; ++b) {
    dst->inflight_depth[b] += src.inflight_depth[b] * factor;
  }
}

void ScaleKernelPmu(KernelPmu* pmu, const PmuCounters& full_wave,
                    const PmuCounters* remainder_wave, int64_t full_batches) {
  pmu->batch = full_wave;
  pmu->total = PmuCounters();
  // A launch smaller than one batch simulates the full wave once and
  // charges it once (launch.cc's `full_batches == 0 ? full_batch : ...`).
  int64_t factor = full_batches == 0 ? 1 : full_batches;
  AddScaledPmu(&pmu->total, full_wave, factor);
  if (remainder_wave != nullptr) {
    AddScaledPmu(&pmu->total, *remainder_wave, 1);
  }
  pmu->collected = true;
}

namespace {

void CountersJson(std::ostringstream& out, const PmuCounters& c,
                  const char* indent) {
  out << "{\n";
  auto f = [&](const char* name, double v, bool last = false) {
    out << indent << "  \"" << name << "\": " << JsonNumber(v)
        << (last ? "\n" : ",\n");
  };
  auto n = [&](const char* name, int64_t v) {
    out << indent << "  \"" << name << "\": " << v << ",\n";
  };
  f("tensor_active_cycles", c.tensor_active_cycles);
  f("lds_active_cycles", c.lds_active_cycles);
  f("copy_issue_cycles", c.copy_issue_cycles);
  f("fill_cycles", c.fill_cycles);
  f("wait_stall_cycles", c.wait_stall_cycles);
  f("acquire_stall_cycles", c.acquire_stall_cycles);
  f("barrier_stall_cycles", c.barrier_stall_cycles);
  f("exposed_copy_cycles", c.exposed_copy_cycles);
  f("llc_read_bytes", c.llc_read_bytes);
  f("dram_read_bytes", c.dram_read_bytes);
  f("lds_read_bytes", c.lds_read_bytes);
  f("dram_write_bytes", c.dram_write_bytes);
  f("cp_async_bytes", c.cp_async_bytes);
  f("flops", c.flops);
  n("llc_read_transactions", c.llc_read_transactions);
  n("dram_read_transactions", c.dram_read_transactions);
  n("lds_read_transactions", c.lds_read_transactions);
  n("dram_write_transactions", c.dram_write_transactions);
  n("cp_async_transactions", c.cp_async_transactions);
  n("barrier_arrivals", c.barrier_arrivals);
  n("wait_parks", c.wait_parks);
  n("acquire_parks", c.acquire_parks);
  out << indent << "  \"inflight_depth\": [";
  for (int b = 0; b < kPmuDepthBuckets; ++b) {
    out << c.inflight_depth[b] << (b + 1 < kPmuDepthBuckets ? ", " : "");
  }
  out << "]\n" << indent << "}";
}

std::string Bytes(double b) {
  char buf[48];
  if (b >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f GB", b / 1e9);
  } else if (b >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f MB", b / 1e6);
  } else if (b >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2f KB", b / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", b);
  }
  return buf;
}

}  // namespace

std::string RenderPmu(const KernelPmu& pmu) {
  std::ostringstream out;
  if (!pmu.collected) return "pmu: not collected\n";
  const PmuCounters& t = pmu.total;
  char buf[160];
  out << "pmu counters (whole launch):\n";
  auto cyc = [&](const char* name, double v) {
    std::snprintf(buf, sizeof(buf), "  %-24s %18.0f cycles\n", name, v);
    out << buf;
  };
  cyc("tensor_active", t.tensor_active_cycles);
  cyc("lds_active", t.lds_active_cycles);
  cyc("copy_issue", t.copy_issue_cycles);
  cyc("fill", t.fill_cycles);
  cyc("wait_stall", t.wait_stall_cycles);
  cyc("acquire_stall", t.acquire_stall_cycles);
  cyc("barrier_stall", t.barrier_stall_cycles);
  cyc("exposed_copy", t.exposed_copy_cycles);
  auto traf = [&](const char* name, double bytes, int64_t tx) {
    std::snprintf(buf, sizeof(buf), "  %-24s %18s  (%ld transactions)\n",
                  name, Bytes(bytes).c_str(), static_cast<long>(tx));
    out << buf;
  };
  traf("llc_read", t.llc_read_bytes, t.llc_read_transactions);
  traf("dram_read", t.dram_read_bytes, t.dram_read_transactions);
  traf("lds_read", t.lds_read_bytes, t.lds_read_transactions);
  traf("dram_write", t.dram_write_bytes, t.dram_write_transactions);
  traf("cp_async", t.cp_async_bytes, t.cp_async_transactions);
  std::snprintf(buf, sizeof(buf),
                "  %-24s %18.0f\n", "flops", t.flops);
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "  barrier_arrivals %ld, wait_parks %ld, acquire_parks %ld\n",
                static_cast<long>(t.barrier_arrivals),
                static_cast<long>(t.wait_parks),
                static_cast<long>(t.acquire_parks));
  out << buf;
  out << "  cp.async in-flight depth:";
  for (int b = 0; b < kPmuDepthBuckets; ++b) {
    if (t.inflight_depth[b] == 0) continue;
    std::snprintf(buf, sizeof(buf), " %d%s:%ld", b + 1,
                  b + 1 == kPmuDepthBuckets ? "+" : "",
                  static_cast<long>(t.inflight_depth[b]));
    out << buf;
  }
  out << "\n";
  std::snprintf(buf, sizeof(buf), "  achieved occupancy %.1f%%\n",
                pmu.achieved_occupancy * 100.0);
  out << buf;
  return out.str();
}

std::string PmuToJson(const KernelPmu& pmu) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"collected\": " << (pmu.collected ? "true" : "false") << ",\n";
  out << "  \"achieved_occupancy\": " << JsonNumber(pmu.achieved_occupancy)
      << ",\n";
  out << "  \"total\": ";
  CountersJson(out, pmu.total, "  ");
  out << ",\n  \"batch\": ";
  CountersJson(out, pmu.batch, "  ");
  out << "\n}";
  return out.str();
}

}  // namespace sim
}  // namespace alcop
