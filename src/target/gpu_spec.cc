#include "target/gpu_spec.h"

namespace alcop {
namespace target {

bool GpuSpec::SupportsAsyncCopy(ir::MemScope src, ir::MemScope dst,
                                bool has_fused_op) const {
  if (src == ir::MemScope::kShared && dst == ir::MemScope::kRegister) {
    return true;  // scoreboarded loads, every generation
  }
  if (src == ir::MemScope::kGlobal && dst == ir::MemScope::kShared) {
    return has_cp_async && !has_fused_op;
  }
  return false;
}

GpuSpec AmpereSpec() {
  GpuSpec spec;  // defaults are the A100-class numbers
  spec.name = "ampere-sim";
  // Fitted by `alcop_cli calibrate --fit` over the Fig. 10 sweep (grid
  // search on cycle log-error plus a top-16 regret penalty).
  spec.model_fit.iter_overhead_cycles = 120.0;
  spec.model_fit.fill_scale = 0.5;
  return spec;
}

GpuSpec VoltaLikeSpec() {
  GpuSpec spec;
  spec.name = "volta-like-sim";
  spec.num_sms = 80;
  spec.clock_ghz = 1.53;
  spec.tc_flops_per_sm_per_cycle = 1024.0;
  spec.dram_bw_bytes_per_cycle = 590.0;
  spec.dram_write_bw_bytes_per_cycle = 590.0;
  spec.llc_bytes = 6ll * 1024 * 1024;
  spec.llc_bw_bytes_per_cycle = 1400.0;
  spec.smem_bytes_per_sm = 96 * 1024;
  spec.has_cp_async = false;
  return spec;
}

GpuSpec HopperLikeSpec() {
  GpuSpec spec;
  spec.name = "hopper-like-sim";
  spec.num_sms = 132;
  spec.clock_ghz = 1.83;
  spec.tc_flops_per_sm_per_cycle = 4096.0;
  spec.lds_bytes_per_cycle_per_sm = 128.0;
  spec.dram_bw_bytes_per_cycle = 1830.0;
  spec.dram_write_bw_bytes_per_cycle = 1830.0;
  spec.llc_bytes = 50ll * 1024 * 1024;
  spec.llc_bw_bytes_per_cycle = 4200.0;
  spec.smem_bytes_per_sm = 228 * 1024;
  // TMA-style bulk copies: one descriptor moves a whole tile, so the
  // per-warp issue cost of copies nearly vanishes.
  spec.copy_issue_bytes_per_cycle = 512.0;
  return spec;
}

}  // namespace target
}  // namespace alcop
