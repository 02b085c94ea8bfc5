#include "perfmodel/calibration.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "obs/stall.h"
#include "perfmodel/bottleneck.h"
#include "schedule/lower.h"
#include "sim/launch.h"
#include "support/json.h"
#include "tuner/space.h"

namespace alcop {
namespace perfmodel {

using support::JsonEscape;
using support::JsonNumber;

namespace {

double RelError(double analytical, double measured) {
  constexpr double kEps = 1e-9;
  return std::fabs(analytical - measured) /
         std::max(std::fabs(measured), kEps);
}

void AddTerm(CalibrationResult* out, const char* name, double analytical,
             double measured) {
  TermError term;
  term.name = name;
  term.analytical = analytical;
  term.measured = measured;
  term.rel_error = RelError(analytical, measured);
  out->terms.push_back(std::move(term));
}

}  // namespace

CalibrationResult CalibrateConfig(const schedule::GemmOp& op,
                                  const schedule::ScheduleConfig& config,
                                  const target::GpuSpec& spec) {
  CalibrationResult out;
  schedule::StaticFeasibility verdict =
      schedule::CheckFeasibility(op, config, spec);
  if (!verdict.feasible) {
    out.reason = std::move(verdict.reason);
    return out;
  }
  // One interpreter run gives the timing, the counters and the first
  // wave's timeline (for the fill/drain split and the measured stall
  // verdict).
  sim::BatchTimeline batch;
  sim::KernelTiming timing = sim::InterpretKernel(
      sim::CompileKernel(op, config, spec), spec, &out.pmu, &batch);
  AnalyticalBreakdown model = AnalyticalModel(op, config, spec);
  if (!model.feasible) {
    out.reason = "analytical model rejected: " + model.reason;
    return out;
  }
  out.feasible = true;
  out.measured_cycles = timing.cycles;
  out.predicted_cycles = model.cycles;

  obs::KernelProfile profile = obs::ProfileBatch(batch);
  obs::AttachModelVerdict(&profile, op, config, spec);

  out.roofline = ClassifyRoofline(out.pmu, timing.cycles, spec);
  BottleneckBreakdown bottleneck = BottleneckAnalyze(op, config, spec);
  out.bottleneck_limiter = bottleneck.Limiter();
  out.profile_verdict = profile.verdict;
  out.roofline_agrees =
      RooflineAgreesWithLimiter(out.roofline, out.bottleneck_limiter);
  out.profile_agrees = profile.model_agrees;

  // ---- Term-by-term audit (see header for the mapping) ----
  const schedule::TileConfig& t = config.tile;
  const double n_outer =
      static_cast<double>(op.k / (t.tb_k * config.split_k));
  const double n_inner = static_cast<double>(t.tb_k / t.warp_k);
  const double makespan = timing.batch_cycles;

  AddTerm(&out, "cycles", model.cycles, timing.cycles);
  AddTerm(&out, "t_threadblk",
          model.t_init + model.t_main_loop + model.t_epilogue, makespan);
  AddTerm(&out, "t_init", model.t_init, profile.fill_fraction * makespan);
  AddTerm(&out, "t_main_loop", model.t_main_loop,
          (1.0 - profile.fill_fraction - profile.drain_fraction) * makespan);
  AddTerm(&out, "t_epilogue", model.t_epilogue,
          profile.drain_fraction * makespan);

  // Rate terms, from the steady-state batch's PMU counters, over the
  // geometry of the wave they were counted on (the one the timeline
  // recorded).
  const sim::PmuCounters& c = out.pmu.batch;

  const double util = std::min(
      1.0, static_cast<double>(config.NumWarps()) * batch.threadblocks / 4.0);
  AddTerm(&out, "t_compute", model.t_compute,
          c.tensor_active_cycles / (4.0 * util * n_outer * n_inner));

  const double llc_rate_sm = spec.llc_bw_bytes_per_cycle / batch.active_sms;
  const double dram_rate_sm = spec.dram_bw_bytes_per_cycle / batch.active_sms;
  const double measured_llc_load =
      spec.llc_latency_cycles + (c.llc_read_bytes / n_outer) / llc_rate_sm;
  const double measured_dram_load =
      spec.dram_latency_cycles + (c.dram_read_bytes / n_outer) / dram_rate_sm;
  AddTerm(&out, "t_smem_load", model.t_smem_load,
          std::max(measured_llc_load, measured_dram_load));

  const double lds_rate =
      spec.lds_bytes_per_cycle_per_sm /
      (config.swizzle ? 1.0 : spec.bank_conflict_factor);
  AddTerm(&out, "t_reg_load", model.t_reg_load,
          spec.smem_latency_cycles +
              (c.lds_read_bytes / (n_outer * n_inner)) / lds_rate);
  return out;
}

RankQuality ComputeRankQuality(const std::vector<double>& predicted,
                               const std::vector<double>& measured, int k) {
  RankQuality out;
  const size_t n = std::min(predicted.size(), measured.size());
  out.count = static_cast<int64_t>(n);
  out.k = std::min<int>(k, static_cast<int>(n));
  if (n < 2 || out.k == 0) return out;

  // Kendall tau-b: concordant minus discordant over the tie-corrected
  // pair count. O(n^2) — the per-operator spaces are a few thousand
  // configs, well within budget for a bench-time metric.
  int64_t concordant = 0, discordant = 0, ties_p = 0, ties_m = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double dp = predicted[i] - predicted[j];
      double dm = measured[i] - measured[j];
      bool tie_p = dp == 0.0 || (std::isinf(predicted[i]) &&
                                 std::isinf(predicted[j]));
      bool tie_m = dm == 0.0;
      if (tie_p) ++ties_p;
      if (tie_m) ++ties_m;
      if (tie_p || tie_m) continue;
      if ((dp > 0) == (dm > 0)) {
        ++concordant;
      } else {
        ++discordant;
      }
    }
  }
  const double total = static_cast<double>(n) * (n - 1) / 2.0;
  const double denom = std::sqrt((total - ties_p) * (total - ties_m));
  out.kendall_tau =
      denom > 0 ? static_cast<double>(concordant - discordant) / denom : 0.0;

  // Top-k recall: of the k best measured configs, how many the predicted
  // ordering also puts in its top k. Ties break by index (stable).
  auto top_indices = [n](const std::vector<double>& v, int count) {
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i) idx[i] = i;
    std::stable_sort(idx.begin(), idx.end(),
                     [&v](size_t a, size_t b) { return v[a] < v[b]; });
    idx.resize(static_cast<size_t>(count));
    return idx;
  };
  std::vector<size_t> best_measured = top_indices(measured, out.k);
  std::vector<size_t> best_predicted = top_indices(predicted, out.k);
  std::sort(best_predicted.begin(), best_predicted.end());
  int hits = 0;
  for (size_t i : best_measured) {
    if (std::binary_search(best_predicted.begin(), best_predicted.end(), i)) {
      ++hits;
    }
  }
  out.topk_recall = static_cast<double>(hits) / out.k;
  return out;
}

CoverageRecall ComputeCoverageRecall(const std::vector<double>& predicted,
                                     const std::vector<double>& measured,
                                     int top, int cut, double tolerance) {
  CoverageRecall out;
  const size_t n = std::min(predicted.size(), measured.size());
  out.count = static_cast<int64_t>(n);
  out.top = std::min<int>(top, static_cast<int>(n));
  out.cut = std::min<int>(cut, static_cast<int>(n));
  if (out.top == 0 || out.cut == 0) return out;

  std::vector<size_t> by_meas(n), by_pred(n);
  for (size_t i = 0; i < n; ++i) by_meas[i] = by_pred[i] = i;
  std::stable_sort(by_meas.begin(), by_meas.end(), [&](size_t a, size_t b) {
    return measured[a] < measured[b];
  });
  std::stable_sort(by_pred.begin(), by_pred.end(), [&](size_t a, size_t b) {
    return predicted[a] < predicted[b];
  });

  std::vector<char> kept(n, 0);
  double kept_best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < out.cut; ++i) {
    kept[by_pred[static_cast<size_t>(i)]] = 1;
    kept_best =
        std::min(kept_best, measured[by_pred[static_cast<size_t>(i)]]);
  }
  int covered = 0;
  for (int i = 0; i < out.top; ++i) {
    const size_t idx = by_meas[static_cast<size_t>(i)];
    if (kept[idx] || kept_best <= tolerance * measured[idx]) ++covered;
  }
  out.coverage = static_cast<double>(covered) / out.top;
  out.best_survives = kept[by_meas[0]] != 0;
  return out;
}

namespace {

// Every kFitStride-th config of each operator's space is simulated once.
constexpr size_t kFitStride = 8;

// One simulated config of the fitting sweep.
struct SweepSample {
  size_t op_index = 0;
  schedule::ScheduleConfig config;
  double measured = 0.0;
};

}  // namespace

ModelFitReport FitModelConstants(const std::vector<schedule::GemmOp>& ops,
                                 const target::GpuSpec& spec) {
  std::vector<SweepSample> samples;
  for (size_t oi = 0; oi < ops.size(); ++oi) {
    std::vector<schedule::ScheduleConfig> space =
        tuner::EnumerateSpace(ops[oi]);
    for (size_t i = 0; i < space.size(); i += kFitStride) {
      sim::KernelTiming timing =
          sim::CompileAndSimulate(ops[oi], space[i], spec);
      if (timing.feasible) samples.push_back({oi, space[i], timing.cycles});
    }
  }

  // The regret of an operator is the best measured cycles among the
  // model's 16 favorites relative to the sample's best: cycle error alone
  // admits constants that misorder the frontier.
  ModelFitReport report;
  report.samples = static_cast<int64_t>(samples.size());
  report.objective = std::numeric_limits<double>::infinity();
  target::GpuSpec probe = spec;
  for (double iter_overhead :
       {0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0, 105.0, 120.0}) {
    for (double fill_scale : {0.5, 1.0, 1.5, 2.0}) {
      probe.model_fit = {iter_overhead, fill_scale};
      double log_error_sum = 0.0;
      std::map<size_t, std::vector<std::pair<double, double>>> per_op;
      for (const SweepSample& s : samples) {
        double predicted = PredictCycles(ops[s.op_index], s.config, probe);
        log_error_sum +=
            std::fabs(std::log(predicted / std::max(s.measured, 1e-9)));
        per_op[s.op_index].push_back({predicted, s.measured});
      }
      double regret_sum = 0.0;
      for (auto& [oi, pairs] : per_op) {
        std::stable_sort(pairs.begin(), pairs.end());
        double top_best = pairs[0].second, sample_best = pairs[0].second;
        for (size_t i = 1; i < pairs.size(); ++i) {
          if (i < 16) top_best = std::min(top_best, pairs[i].second);
          sample_best = std::min(sample_best, pairs[i].second);
        }
        regret_sum += top_best / sample_best - 1.0;
      }
      double log_error = log_error_sum / static_cast<double>(samples.size());
      double objective =
          log_error + 10.0 * regret_sum / static_cast<double>(per_op.size());
      if (objective < report.objective) {
        report.fit = probe.model_fit;
        report.objective = objective;
        report.mean_log_error = log_error;
      }
    }
  }
  return report;
}

std::string CalibrationToJson(const CalibrationResult& result) {
  std::ostringstream os;
  os << "{\"feasible\": " << (result.feasible ? "true" : "false");
  if (!result.feasible) {
    os << ", \"reason\": \"" << JsonEscape(result.reason) << "\"}";
    return os.str();
  }
  os << ", \"measured_cycles\": " << JsonNumber(result.measured_cycles)
     << ", \"predicted_cycles\": " << JsonNumber(result.predicted_cycles)
     << ", \"bottleneck_limiter\": \""
     << JsonEscape(result.bottleneck_limiter) << "\""
     << ", \"profile_verdict\": \"" << JsonEscape(result.profile_verdict)
     << "\""
     << ", \"roofline_agrees\": "
     << (result.roofline_agrees ? "true" : "false")
     << ", \"profile_agrees\": "
     << (result.profile_agrees ? "true" : "false") << ", \"terms\": {";
  for (size_t i = 0; i < result.terms.size(); ++i) {
    const TermError& term = result.terms[i];
    if (i > 0) os << ", ";
    os << "\"" << JsonEscape(term.name) << "\": {\"analytical\": "
       << JsonNumber(term.analytical)
       << ", \"measured\": " << JsonNumber(term.measured)
       << ", \"rel_error\": " << JsonNumber(term.rel_error) << "}";
  }
  os << "}, \"roofline\": " << RooflineToJson(result.roofline) << "}";
  return os.str();
}

}  // namespace perfmodel
}  // namespace alcop
