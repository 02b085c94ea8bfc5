// Model-calibration bench: the Fig. 12 experiment as a permanent,
// machine-readable harness. Over the Fig. 10 operator sweep it runs
// perfmodel::CalibrateConfig on every (strided) schedule and reports
//   - per-term relative error of the Table-I analytical model against
//     the PMU/stall measurements (mean, median, p90, max per term), and
//   - the bottleneck-verdict agreement rates: the analytical limiter
//     against the PMU-derived roofline regime and against the stall
//     profiler's measured verdict, per operator and overall.
// The counters and timelines come from the reference interpreter, the
// only simulator core that records them.
//
// Emits one JSON object (consumed by `scripts/bench.sh calibration` into
// BENCH_calibration.json; the driver fills the "meta" block). Exit is
// nonzero when the roofline agreement rate drops below 0.90 or nothing
// feasible ran — never because of wall time or error magnitudes.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "perfmodel/calibration.h"
#include "tuner/strategy.h"
#include "workloads/ops.h"

using namespace alcop;  // NOLINT(build/namespaces) - bench driver

namespace {

struct TermStats {
  std::vector<double> errors;

  void Summarize(double* mean, double* median, double* p90,
                 double* max) const {
    *mean = *median = *p90 = *max = 0.0;
    if (errors.empty()) return;
    std::vector<double> sorted = errors;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0.0;
    for (double e : sorted) sum += e;
    *mean = sum / static_cast<double>(sorted.size());
    *median = sorted[sorted.size() / 2];
    *p90 = sorted[(sorted.size() * 9) / 10];
    *max = sorted.back();
  }
};

struct AgreeCount {
  int agree = 0;
  int total = 0;
  double Rate() const {
    return total > 0 ? static_cast<double>(agree) / total : 0.0;
  }
};

// Rank quality of the analytical model over one operator's full space:
// how trustworthy the ranking is that the tuner's model-guided pruning
// cut (SpaceOptions::model_topk) relies on.
struct OpRankQuality {
  std::string op;
  perfmodel::RankQuality rank;
  perfmodel::CoverageRecall coverage;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  // Quick mode (the CI perf-smoke job) strides the schedule space; the
  // full sweep audits every 4th config of every Fig. 10 operator (the
  // calibration pass profiles a full batch timeline per config, ~4x the
  // work of a bare simulation).
  const int stride = quick ? 16 : 4;

  target::GpuSpec spec = target::AmpereSpec();

  int configs = 0, feasible = 0;
  // Term order is fixed by CalibrateConfig; keep insertion order here.
  std::vector<std::string> term_order;
  std::map<std::string, TermStats> terms;
  AgreeCount roofline_total, profile_total;
  std::vector<std::pair<std::string, std::pair<AgreeCount, AgreeCount>>>
      per_op;  // op name -> (roofline, profile)
  obs::Stopwatch watch;

  for (const schedule::GemmOp& op : workloads::BenchmarkOps()) {
    tuner::TuningTask task = tuner::MakeSimulatorTask(op, spec);
    AgreeCount op_roofline, op_profile;
    for (size_t c = 0; c < task.space.size(); c += stride) {
      const schedule::ScheduleConfig& config = task.space[c];
      ++configs;
      perfmodel::CalibrationResult result =
          perfmodel::CalibrateConfig(op, config, spec);
      if (!result.feasible) continue;
      ++feasible;

      for (const perfmodel::TermError& term : result.terms) {
        auto [it, inserted] = terms.emplace(term.name, TermStats());
        if (inserted) term_order.push_back(term.name);
        it->second.errors.push_back(term.rel_error);
      }
      ++roofline_total.total;
      ++op_roofline.total;
      if (result.roofline_agrees) {
        ++roofline_total.agree;
        ++op_roofline.agree;
      }
      ++profile_total.total;
      ++op_profile.total;
      if (result.profile_agrees) {
        ++profile_total.agree;
        ++op_profile.agree;
      }
    }
    per_op.emplace_back(op.name, std::make_pair(op_roofline, op_profile));
  }

  // Rank-quality audit over the *full* space of every operator (cheap:
  // measurements route through the sim cache and bytecode replay). This is
  // the number the model-guided pruning cut stands on: of the measured
  // top-32, the fraction effectively preserved when only the model's
  // top-128 survive (1% tolerance), plus Kendall tau-b as a diagnostic.
  std::vector<OpRankQuality> rank_per_op;
  double tau_sum = 0.0, coverage_min = 1.0;
  bool best_survives_all = true;
  for (const schedule::GemmOp& op : workloads::BenchmarkOps()) {
    tuner::TuningTask task = tuner::MakeSimulatorTask(op, spec);
    const size_t n = task.space.size();
    std::vector<double> measured(n), predicted(n);
    for (size_t i = 0; i < n; ++i) {
      measured[i] = task.measure(task.space[i]);
      predicted[i] = perfmodel::PredictCycles(op, task.space[i], spec);
    }
    OpRankQuality rq;
    rq.op = op.name;
    rq.rank = perfmodel::ComputeRankQuality(predicted, measured, 32);
    rq.coverage = perfmodel::ComputeCoverageRecall(
        predicted, measured, /*top=*/32,
        /*cut=*/tuner::SpaceOptions::kDefaultModelTopK, /*tolerance=*/1.01);
    tau_sum += rq.rank.kendall_tau;
    coverage_min = std::min(coverage_min, rq.coverage.coverage);
    best_survives_all = best_survives_all && rq.coverage.best_survives;
    rank_per_op.push_back(std::move(rq));
  }
  double seconds = watch.Seconds();

  std::printf("{\n");
  std::printf("  \"bench\": \"calibration\",\n");
  std::printf("  \"quick\": %s,\n", quick ? "true" : "false");
  std::printf("  \"meta\": {},\n");
  std::printf("  \"operators\": %zu,\n", per_op.size());
  std::printf("  \"configs\": %d,\n", configs);
  std::printf("  \"feasible\": %d,\n", feasible);
  std::printf("  \"seconds\": %.4f,\n", seconds);
  std::printf("  \"terms\": {\n");
  for (size_t i = 0; i < term_order.size(); ++i) {
    double mean, median, p90, max;
    terms[term_order[i]].Summarize(&mean, &median, &p90, &max);
    std::printf("    \"%s\": {\"mean_rel_error\": %.6g, "
                "\"median_rel_error\": %.6g, \"p90_rel_error\": %.6g, "
                "\"max_rel_error\": %.6g}%s\n",
                term_order[i].c_str(), mean, median, p90, max,
                i + 1 < term_order.size() ? "," : "");
  }
  std::printf("  },\n");
  std::printf("  \"agreement\": {\n");
  std::printf("    \"roofline_vs_bottleneck\": {\"agree\": %d, \"total\": %d, "
              "\"rate\": %.4f},\n",
              roofline_total.agree, roofline_total.total,
              roofline_total.Rate());
  std::printf("    \"profile_vs_bottleneck\": {\"agree\": %d, \"total\": %d, "
              "\"rate\": %.4f},\n",
              profile_total.agree, profile_total.total, profile_total.Rate());
  std::printf("    \"per_op\": [\n");
  for (size_t i = 0; i < per_op.size(); ++i) {
    std::printf("      {\"op\": \"%s\", \"roofline_rate\": %.4f, "
                "\"profile_rate\": %.4f, \"configs\": %d}%s\n",
                per_op[i].first.c_str(), per_op[i].second.first.Rate(),
                per_op[i].second.second.Rate(),
                per_op[i].second.first.total,
                i + 1 < per_op.size() ? "," : "");
  }
  std::printf("    ]\n");
  std::printf("  },\n");
  std::printf("  \"rank_quality\": {\n");
  std::printf("    \"top\": 32,\n");
  std::printf("    \"cut\": %d,\n", tuner::SpaceOptions::kDefaultModelTopK);
  std::printf("    \"tolerance\": 1.01,\n");
  std::printf("    \"kendall_tau_mean\": %.4f,\n",
              rank_per_op.empty()
                  ? 0.0
                  : tau_sum / static_cast<double>(rank_per_op.size()));
  std::printf("    \"topk_recall\": %.4f,\n", coverage_min);
  std::printf("    \"best_survives_all\": %s,\n",
              best_survives_all ? "true" : "false");
  std::printf("    \"per_op\": [\n");
  for (size_t i = 0; i < rank_per_op.size(); ++i) {
    const OpRankQuality& rq = rank_per_op[i];
    std::printf(
        "      {\"op\": \"%s\", \"space\": %lld, \"kendall_tau\": %.4f, "
        "\"strict_top32_recall\": %.4f, \"coverage\": %.4f, "
        "\"best_survives\": %s}%s\n",
        rq.op.c_str(), static_cast<long long>(rq.rank.count),
        rq.rank.kendall_tau, rq.rank.topk_recall, rq.coverage.coverage,
        rq.coverage.best_survives ? "true" : "false",
        i + 1 < rank_per_op.size() ? "," : "");
  }
  std::printf("    ]\n");
  std::printf("  }\n");
  std::printf("}\n");

  // Gate only on the claims downstream code relies on: the roofline
  // regime must agree with the analytical limiter on >= 90% of feasible
  // schedules, and the model ranking the pruning cut trusts must
  // effectively preserve the measured top-32 of every operator.
  bool ok = feasible > 0 && roofline_total.Rate() >= 0.90 &&
            coverage_min >= 0.95 && best_survives_all;
  return ok ? 0 : 1;
}
