#include "perfmodel/roofline.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "support/json.h"

namespace alcop {
namespace perfmodel {

using support::JsonEscape;
using support::JsonNumber;

namespace {

double Intensity(double flops, double bytes) {
  if (bytes <= 0.0) return std::numeric_limits<double>::infinity();
  return flops / bytes;
}

}  // namespace

RooflinePoint ClassifyRoofline(const sim::KernelPmu& pmu,
                               double measured_cycles,
                               const target::GpuSpec& spec) {
  RooflinePoint out;
  const sim::PmuCounters& c = pmu.total;
  const double sms = static_cast<double>(spec.num_sms);
  const double llc_bw_sm = spec.llc_bw_bytes_per_cycle / sms;
  const double dram_bw_sm = spec.dram_bw_bytes_per_cycle / sms;
  const double dram_write_bw_sm = spec.dram_write_bw_bytes_per_cycle / sms;
  const double lds_bw = spec.lds_bytes_per_cycle_per_sm;
  const double peak = spec.tc_flops_per_sm_per_cycle;

  const double dram_bytes = c.dram_read_bytes + c.dram_write_bytes;
  out.ai_dram = Intensity(c.flops, dram_bytes);
  out.ai_llc = Intensity(c.flops, c.llc_read_bytes);
  out.ai_lds = Intensity(c.flops, c.lds_read_bytes);
  out.ridge_ai_dram = peak / dram_bw_sm;
  out.ridge_ai_llc = peak / llc_bw_sm;
  out.ridge_ai_lds = peak / lds_bw;

  out.compute_cycles = c.flops / peak;
  out.llc_cycles = c.llc_read_bytes / llc_bw_sm;
  // Reads and writes travel independent DRAM channels in the simulator,
  // so the DRAM demand is the slower of the two, not their sum.
  out.dram_cycles = std::max(c.dram_read_bytes / dram_bw_sm,
                             c.dram_write_bytes / dram_write_bw_sm);
  out.lds_cycles = c.lds_read_bytes / lds_bw;

  double top = out.compute_cycles;
  out.regime = "compute";
  if (out.llc_cycles > top) {
    top = out.llc_cycles;
    out.regime = "llc";
  }
  if (out.dram_cycles > top) {
    top = out.dram_cycles;
    out.regime = "dram";
  }
  if (out.lds_cycles > top) {
    top = out.lds_cycles;
    out.regime = "lds";
  }

  out.peak_flops_per_cycle = peak;
  out.roof_flops_per_cycle = top > 0.0 ? c.flops / top : peak;
  out.attained_flops_per_cycle =
      measured_cycles > 0.0 ? c.flops / measured_cycles : 0.0;
  out.efficiency = out.roof_flops_per_cycle > 0.0
                       ? out.attained_flops_per_cycle / out.roof_flops_per_cycle
                       : 0.0;
  return out;
}

bool RooflineAgreesWithLimiter(const RooflinePoint& point,
                               const std::string& limiter) {
  return (point.regime == "compute") == (limiter == "compute");
}

std::string RooflineToJson(const RooflinePoint& point) {
  std::ostringstream os;
  os << "{\"regime\": \"" << JsonEscape(point.regime) << "\""
     << ", \"ai_dram\": " << JsonNumber(point.ai_dram)
     << ", \"ai_llc\": " << JsonNumber(point.ai_llc)
     << ", \"ai_lds\": " << JsonNumber(point.ai_lds)
     << ", \"ridge_ai_dram\": " << JsonNumber(point.ridge_ai_dram)
     << ", \"ridge_ai_llc\": " << JsonNumber(point.ridge_ai_llc)
     << ", \"ridge_ai_lds\": " << JsonNumber(point.ridge_ai_lds)
     << ", \"compute_cycles\": " << JsonNumber(point.compute_cycles)
     << ", \"llc_cycles\": " << JsonNumber(point.llc_cycles)
     << ", \"dram_cycles\": " << JsonNumber(point.dram_cycles)
     << ", \"lds_cycles\": " << JsonNumber(point.lds_cycles)
     << ", \"peak_flops_per_cycle\": " << JsonNumber(point.peak_flops_per_cycle)
     << ", \"roof_flops_per_cycle\": " << JsonNumber(point.roof_flops_per_cycle)
     << ", \"attained_flops_per_cycle\": "
     << JsonNumber(point.attained_flops_per_cycle)
     << ", \"efficiency\": " << JsonNumber(point.efficiency) << "}";
  return os.str();
}

}  // namespace perfmodel
}  // namespace alcop
