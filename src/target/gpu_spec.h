// GPU target specification: an Ampere-class machine description.
//
// All rates are expressed per clock cycle so the simulator and the
// analytical model work in cycles and convert to wall-clock time only at
// the edges. Three device models are provided:
//   - AmpereSpec():     the paper's platform (A100-class, cp.async).
//   - VoltaLikeSpec():  no cp.async — detection rule 1 refuses
//                       shared-memory pipelining (cross-generation study).
//   - HopperLikeSpec(): TMA-style bulk copies and a higher
//                       compute-to-bandwidth ratio — pipelining becomes
//                       more valuable, not less.
#ifndef ALCOP_TARGET_GPU_SPEC_H_
#define ALCOP_TARGET_GPU_SPEC_H_

#include <cstdint>
#include <string>

#include "ir/buffer.h"

namespace alcop {
namespace target {

// The two fitted constants of the analytical model's steady-state
// main-loop composition (the DELTA on top of Table I's pipeline latency
// model; see perfmodel/analytical.cc). `alcop_cli calibrate --fit`
// grid-searches them against simulator measurements over the Fig. 10
// sweep; the defaults leave a spec unfitted.
struct ModelFit {
  // Per-outer-iteration scheduling cost the event-driven simulator pays
  // (commit/wait/barrier handling) that pure rate terms miss.
  double iter_overhead_cycles = 0.0;
  // Weight of the first-chunk latency in the prologue estimate.
  double fill_scale = 1.0;
};

struct GpuSpec {
  std::string name;

  // ---- Chip geometry ----
  int num_sms = 108;
  double clock_ghz = 1.41;

  // ---- Compute ----
  // fp16 tensor-core FLOPs per SM per cycle (multiply-add counted as 2).
  double tc_flops_per_sm_per_cycle = 2048.0;

  // ---- Shared-memory (LDS) pipe ----
  double lds_bytes_per_cycle_per_sm = 128.0;
  // Throughput divisor of un-swizzled shared-memory access patterns.
  double bank_conflict_factor = 2.0;
  double smem_latency_cycles = 25.0;

  // ---- Copy issue ----
  // How many bytes of copy a warp can issue per cycle (address generation
  // and cp.async instruction issue, not the memory system itself).
  double copy_issue_bytes_per_cycle = 64.0;

  // ---- LLC ----
  int64_t llc_bytes = 40ll * 1024 * 1024;
  double llc_bw_bytes_per_cycle = 2480.0;
  double llc_latency_cycles = 200.0;

  // ---- DRAM ----
  double dram_bw_bytes_per_cycle = 1100.0;
  double dram_write_bw_bytes_per_cycle = 1100.0;
  double dram_latency_cycles = 600.0;

  // ---- Per-SM occupancy limits ----
  int64_t smem_bytes_per_sm = 164 * 1024;
  int64_t regfile_bytes_per_sm = 256 * 1024;
  int max_warps_per_sm = 64;

  // ---- Overheads ----
  double sync_overhead_cycles = 30.0;
  double launch_overhead_cycles = 2000.0;

  // ---- Capabilities ----
  // cp.async: asynchronous Global->Shared copies (Ampere and later).
  bool has_cp_async = true;

  // ---- Fitted analytical-model constants (see ModelFit) ----
  ModelFit model_fit;

  double CyclesToUs(double cycles) const { return cycles / (clock_ghz * 1e3); }

  // The asynchronous-copy capability table (Sec. II-A, rule 1).
  //   Global->Shared   : cp.async, Ampere+ only, and only without a fused
  //                      elementwise op (the copy engine has no ALU).
  //   Shared->Register : scoreboarded loads, async at warp scope on every
  //                      generation, fused ops allowed (they execute in the
  //                      regular ALU pipeline).
  //   Everything else  : not asynchronous (e.g. Global->Register skips the
  //                      staging level entirely).
  bool SupportsAsyncCopy(ir::MemScope src, ir::MemScope dst,
                         bool has_fused_op) const;
};

// Calls `visit(field)` on every rate and limit of the device model, in a
// fixed order (an int, double, int64_t or bool each). This is the one
// list that the sim cache key (SimCacheKey) and the persisted spec
// fingerprint (SpecFingerprint) both walk, so a new device field added
// here reaches both. The name and the model fit are not device numerics.
template <typename Visit>
void VisitDeviceNumerics(const GpuSpec& spec, Visit&& visit) {
  visit(spec.num_sms);
  visit(spec.clock_ghz);
  visit(spec.tc_flops_per_sm_per_cycle);
  visit(spec.lds_bytes_per_cycle_per_sm);
  visit(spec.bank_conflict_factor);
  visit(spec.smem_latency_cycles);
  visit(spec.copy_issue_bytes_per_cycle);
  visit(spec.llc_bytes);
  visit(spec.llc_bw_bytes_per_cycle);
  visit(spec.llc_latency_cycles);
  visit(spec.dram_bw_bytes_per_cycle);
  visit(spec.dram_write_bw_bytes_per_cycle);
  visit(spec.dram_latency_cycles);
  visit(spec.smem_bytes_per_sm);
  visit(spec.regfile_bytes_per_sm);
  visit(spec.max_warps_per_sm);
  visit(spec.sync_overhead_cycles);
  visit(spec.launch_overhead_cycles);
  visit(spec.has_cp_async);
}

GpuSpec AmpereSpec();
GpuSpec VoltaLikeSpec();
GpuSpec HopperLikeSpec();

}  // namespace target
}  // namespace alcop

#endif  // ALCOP_TARGET_GPU_SPEC_H_
