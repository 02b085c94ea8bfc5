// Model-calibration audit: maps each term of the Table-I analytical
// breakdown (perfmodel/analytical.h) to its measured counterpart — PMU
// counters (sim/pmu.h) for the rate terms, the stall profiler's
// fill/drain split (obs/stall.h) for the phase terms — and reports the
// per-term relative error. This is the Fig. 12 experiment turned into a
// permanent harness: bench/calibration.cc sweeps it over the Fig. 10
// configs and gates on the bottleneck-verdict agreement rate.
//
// Term mapping (per steady-state batch of one SM; n_outer = number of
// shared-memory main-loop iterations, n_inner = register-pipeline
// iterations per outer step):
//   cycles       vs  simulated KernelTiming.cycles
//   t_threadblk  vs  batch makespan (KernelTiming.batch_cycles)
//   t_init       vs  fill_fraction x makespan
//   t_main_loop  vs  (1 - fill - drain) x makespan
//   t_epilogue   vs  drain_fraction x makespan
//   t_compute    vs  tensor-pipe active cycles per inner step, utilization
//                    corrected (the four tensor partitions)
//   t_smem_load  vs  max(LLC, DRAM) latency + measured bytes per outer
//                    step over the SM's bandwidth slice
//   t_reg_load   vs  LDS latency + measured bytes per inner step over the
//                    LDS rate
// t_smem_use is skipped: the model derives it from t_reg_load/t_compute
// through the PLM, so a measured counterpart would be circular.
#ifndef ALCOP_PERFMODEL_CALIBRATION_H_
#define ALCOP_PERFMODEL_CALIBRATION_H_

#include <string>
#include <vector>

#include "perfmodel/analytical.h"
#include "perfmodel/roofline.h"
#include "schedule/schedule.h"
#include "sim/pmu.h"
#include "target/gpu_spec.h"

namespace alcop {
namespace perfmodel {

// One analytical term against its measurement.
struct TermError {
  std::string name;
  double analytical = 0.0;
  double measured = 0.0;
  double rel_error = 0.0;  // |analytical - measured| / max(|measured|, eps)
};

struct CalibrationResult {
  bool feasible = false;
  std::string reason;

  double measured_cycles = 0.0;
  double predicted_cycles = 0.0;
  std::vector<TermError> terms;

  sim::KernelPmu pmu;
  RooflinePoint roofline;

  // Verdict cross-checks: the bottleneck model's limiter against the
  // PMU-derived roofline regime and against the stall profiler's
  // measured verdict (both binarized compute-vs-memory).
  std::string bottleneck_limiter;
  std::string profile_verdict;
  bool roofline_agrees = false;
  bool profile_agrees = false;
};

// Simulates one schedule through the reference interpreter (one run with
// PMU counters, one profiled batch timeline) and audits the analytical
// model against the measurements. A config that fails
// schedule::CheckFeasibility returns its reason without being lowered.
CalibrationResult CalibrateConfig(const schedule::GemmOp& op,
                                  const schedule::ScheduleConfig& config,
                                  const target::GpuSpec& spec);

// JSON object (no trailing newline).
std::string CalibrationToJson(const CalibrationResult& result);

// ---- Rank quality ----
// How well a predicted ordering (smaller = better) agrees with measured
// ground truth: Kendall tau-b over all pairs plus top-k recall (of the k
// best measured configs, the fraction also ranked in the predicted top
// k). Infinite predictions sort last; ties break by index so the metric
// is deterministic.
struct RankQuality {
  int64_t count = 0;
  int k = 0;
  double kendall_tau = 0.0;
  double topk_recall = 0.0;
};

RankQuality ComputeRankQuality(const std::vector<double>& predicted,
                               const std::vector<double>& measured, int k);

// The metric the model-guided pruning cut (tuner::SpaceOptions::model_topk)
// is gated on: of the `top` best *measured* configs, the fraction that is
// effectively preserved when only the predicted top-`cut` survive. A top
// config counts as covered if it survives the cut itself, or if some
// survivor measures within `tolerance` (e.g. 1.01 = 1%) of it — pruning a
// config is harmless when an equally-fast one is kept. `best_survives`
// additionally reports whether the exact measured optimum survives the
// cut (the best-found-unchanged guarantee the tuning bench asserts).
struct CoverageRecall {
  int64_t count = 0;
  int top = 0;
  int cut = 0;
  double coverage = 0.0;
  bool best_survives = false;
};

CoverageRecall ComputeCoverageRecall(const std::vector<double>& predicted,
                                     const std::vector<double>& measured,
                                     int top, int cut, double tolerance);

// ---- Fitting the model constants (`alcop_cli calibrate --fit`) ----
// Grid search of target::ModelFit's two constants against simulated
// cycles over every 8th config of each operator's schedule space (the
// stride the shipped constants were fitted at). The objective is the
// mean |log(predicted / measured)| over the sweep plus ten times the
// mean per-operator regret of the predicted top 16, so the fit favors
// constants that rank well, not just ones that minimize cycle error.
// The measurements do not depend on spec.model_fit, so a rerun
// reproduces the shipped constants until the model or simulator moves.
struct ModelFitReport {
  target::ModelFit fit;
  double objective = 0.0;
  double mean_log_error = 0.0;
  int64_t samples = 0;  // feasible configs simulated
};

ModelFitReport FitModelConstants(const std::vector<schedule::GemmOp>& ops,
                                 const target::GpuSpec& spec);

}  // namespace perfmodel
}  // namespace alcop

#endif  // ALCOP_PERFMODEL_CALIBRATION_H_
