#include "perfmodel/analytical.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "schedule/lower.h"
#include "sim/launch.h"
#include "support/check.h"
#include "target/occupancy.h"

namespace alcop {
namespace perfmodel {

using schedule::GemmOp;
using schedule::ScheduleConfig;

double PipelineLatencyModel(double t_load, double t_use, int64_t n_loop,
                            int64_t n_pipe, int64_t n_mplx) {
  ALCOP_CHECK_GE(n_pipe, 1);
  ALCOP_CHECK_GE(n_mplx, 1);
  ALCOP_CHECK_GE(n_loop, 1);
  // During one chunk's load, the compute units can serve the other
  // in-flight chunks of this pipeline (N_pipe) and the other multiplexed
  // workers (N_mplx). If that overlap covers the load, the loop runs at
  // compute speed; otherwise loading is the bottleneck and N_pipe-deep
  // overlap divides the per-iteration latency.
  if (t_load <= static_cast<double>(n_pipe * n_mplx - 1) * t_use) {
    return t_use * static_cast<double>(n_loop);
  }
  return (t_load + t_use) * static_cast<double>(n_loop) /
         static_cast<double>(n_pipe);
}

namespace {

// SM utilization as a function of resident parallelism: the tensor cores
// sit in four SM sub-partitions, so at least four resident warps are
// needed for full issue; beyond that, utilization saturates. (The paper
// learns this from profiling; this is the simulator-calibrated form.)
double Util(int warps_per_tb, int tb_per_sm) {
  double active = static_cast<double>(warps_per_tb) * tb_per_sm;
  return std::min(1.0, active / 4.0);
}

}  // namespace

AnalyticalBreakdown AnalyticalModel(const GemmOp& op,
                                    const ScheduleConfig& config,
                                    const target::GpuSpec& spec) {
  AnalyticalBreakdown out;
  schedule::StaticFeasibility verdict =
      schedule::CheckFeasibility(op, config, spec);
  if (!verdict.feasible) {
    out.reason = std::move(verdict.reason);
    return out;
  }
  const schedule::TileConfig& t = config.tile;
  const target::Occupancy& occ = verdict.occupancy;
  out.threadblocks_per_sm = occ.threadblocks_per_sm;

  int64_t grid_m = op.m / t.tb_m;
  int64_t grid_n = op.n / t.tb_n;
  int64_t total_tbs = op.batch * grid_m * grid_n * config.split_k;
  out.batches = target::NumThreadblockBatches(spec, occ, total_tbs);
  int64_t batch_tbs = std::min<int64_t>(
      total_tbs, static_cast<int64_t>(occ.threadblocks_per_sm) * spec.num_sms);
  // The full batch's wave, as the simulator times it: occupancy bounds the
  // threadblocks resident on one SM, but a small grid spreads across SMs
  // first, so the per-SM multiplexing terms use the wave residency, not
  // the occupancy bound (pricing the occupancy bound was the source of the
  // large t_compute and t_reg_load calibration errors on low-residency
  // configs).
  const target::WaveShape wave =
      target::WaveOf(occ.threadblocks_per_sm, spec.num_sms, batch_tbs);
  const int wave_tbs = wave.threadblocks;
  out.resident_tbs = wave_tbs;

  int warps = config.NumWarps();
  int64_t n_smem_loop = op.k / (t.tb_k * config.split_k);
  int64_t n_reg_loop = t.tb_k / t.warp_k;

  // ---- Computation latency model ----
  // One inner-loop step of every resident warp, on the SM's tensor cores.
  double flops_sm_step = 2.0 * static_cast<double>(t.warp_m) * t.warp_n *
                         t.warp_k * warps * wave_tbs;
  out.t_compute =
      flops_sm_step / (spec.tc_flops_per_sm_per_cycle * Util(warps, wave_tbs));

  // ---- Memory latency model (shared-memory load: one outer iteration) ----
  sim::TrafficAnalysis traffic =
      sim::AnalyzeTraffic(op, config, spec, occ.threadblocks_per_sm);
  double bytes_one_smem_loop =
      static_cast<double>(t.tb_m + t.tb_n) * t.tb_k * 2.0;
  double t_llc_load =
      spec.llc_latency_cycles +
      bytes_one_smem_loop * static_cast<double>(batch_tbs) /
          spec.llc_bw_bytes_per_cycle;
  double dram_bytes_one_loop =
      (static_cast<double>(t.tb_m) * t.tb_k * traffic.a_dram_fraction +
       static_cast<double>(t.tb_n) * t.tb_k * traffic.b_dram_fraction) *
      2.0;
  double t_dram_load =
      spec.dram_latency_cycles +
      dram_bytes_one_loop * static_cast<double>(batch_tbs) /
          spec.dram_bw_bytes_per_cycle;
  out.t_smem_load = std::max(t_llc_load, t_dram_load);

  // Register load: one inner iteration of every resident warp through the
  // LDS pipe.
  double lds_rate = spec.lds_bytes_per_cycle_per_sm /
                    (config.swizzle ? 1.0 : spec.bank_conflict_factor);
  double reg_bytes_step = static_cast<double>(t.warp_m + t.warp_n) *
                          t.warp_k * 2.0 * warps * wave_tbs;
  out.t_reg_load = spec.smem_latency_cycles + reg_bytes_step / lds_rate;

  // ---- Inner pipeline: the use phase of the outer loop ----
  // The PLM view of the inner loop, kept for the Table-I breakdown.
  out.t_smem_use =
      PipelineLatencyModel(out.t_reg_load, out.t_compute, n_reg_loop,
                           config.reg_stages, warps);

  // ---- Steady-state main loop (DELTA on Table I) ----
  // Table I's PLM assumes pipeline stages and multiplexed threadblocks
  // hide whole load phases; the event-driven simulator (and a real SM)
  // charges per-iteration costs the PLM cannot see. The main loop is
  // instead modeled as n_smem_loop repetitions of an initiation interval:
  // the binding per-outer-iteration resource bound on one SM, plus the
  // fitted per-iteration scheduling overhead. Resource candidates:
  //   - tensor pipe and LDS pipe busy time of all resident warps,
  //   - LLC / DRAM transfer time of the SM's tile traffic slice,
  //   - the per-warp serial path (copy issue + inner-loop issue),
  //   - the dependence chain (issue + blended latency + transfer) that
  //     smem_stages-deep pipelining divides but cannot eliminate.
  const target::ModelFit& fit = spec.model_fit;
  const int active_sms = wave.active_sms;
  double c_tensor = static_cast<double>(n_reg_loop) * out.t_compute;
  double c_lds = static_cast<double>(n_reg_loop) *
                 std::max(0.0, out.t_reg_load - spec.smem_latency_cycles);
  double c_llc = bytes_one_smem_loop * wave_tbs * active_sms /
                 spec.llc_bw_bytes_per_cycle;
  double c_dram = dram_bytes_one_loop * wave_tbs * active_sms /
                  spec.dram_bw_bytes_per_cycle;
  double c_issue =
      bytes_one_smem_loop / warps / spec.copy_issue_bytes_per_cycle;
  double warp_mma = 2.0 * static_cast<double>(t.warp_m) * t.warp_n *
                    t.warp_k / (spec.tc_flops_per_sm_per_cycle / 4.0);
  double warp_reg = static_cast<double>(t.warp_m + t.warp_n) * t.warp_k *
                    2.0 * warps * wave_tbs / lds_rate;
  double inner_serial =
      static_cast<double>(n_reg_loop) * std::max(warp_mma, warp_reg);
  double c_serial = c_issue + inner_serial + fit.iter_overhead_cycles;
  double dram_frac =
      std::max(traffic.a_dram_fraction, traffic.b_dram_fraction);
  double blended_latency = (1.0 - dram_frac) * spec.llc_latency_cycles +
                           dram_frac * spec.dram_latency_cycles;
  // Dependence chain: with one effective buffer the next load waits for
  // this iteration's consumers (full serialization); with more, the
  // chain overlaps stage-deep. Register pipelining holds shared-memory
  // stages longer (the inner pipeline drains before the buffer frees),
  // so the effective depth is smem_stages - (reg_stages - 1).
  int eff_stages =
      std::max(1, config.smem_stages - (config.reg_stages - 1));
  double load_chain = c_issue + blended_latency + std::max(c_llc, c_dram);
  double c_dep = eff_stages == 1 ? load_chain + inner_serial
                                  : load_chain / eff_stages;
  out.t_iter = std::max({c_tensor, c_lds, c_llc, c_dram, c_serial, c_dep}) +
               fit.iter_overhead_cycles;
  out.t_main_loop = static_cast<double>(n_smem_loop) * out.t_iter;

  // ---- Init: first chunks travel the full hierarchy, then the pipeline
  // ramps for smem_stages - 1 iterations ----
  out.t_init = fit.fill_scale * (out.t_smem_load + out.t_reg_load) +
               static_cast<double>(config.smem_stages - 1) * out.t_iter;

  // ---- Epilogue model (DELTA) ----
  // Split-K kernels write fp32 partial tiles to the workspace.
  double out_elem_bytes = config.split_k > 1 ? 4.0 : 2.0;
  double output_tile_bytes =
      static_cast<double>(t.tb_m) * t.tb_n * out_elem_bytes;
  out.t_epilogue = spec.dram_latency_cycles +
                   output_tile_bytes * static_cast<double>(batch_tbs) /
                       spec.dram_write_bw_bytes_per_cycle;

  double t_threadblk = out.t_init + out.t_main_loop + out.t_epilogue;
  out.cycles = spec.launch_overhead_cycles +
               t_threadblk * static_cast<double>(out.batches);

  // Split-K reduction pass (memory-bound, own launch).
  if (config.split_k > 1) {
    double out_elems = static_cast<double>(op.batch * op.m * op.n);
    double reduce_bytes =
        out_elems * (4.0 * static_cast<double>(config.split_k) + 2.0);
    out.cycles += spec.launch_overhead_cycles +
                  reduce_bytes / spec.dram_bw_bytes_per_cycle;
  }

  out.feasible = true;
  return out;
}

double PredictCycles(const GemmOp& op, const ScheduleConfig& config,
                     const target::GpuSpec& spec) {
  AnalyticalBreakdown breakdown = AnalyticalModel(op, config, spec);
  if (!breakdown.feasible) return std::numeric_limits<double>::infinity();
  return breakdown.cycles;
}

}  // namespace perfmodel
}  // namespace alcop
