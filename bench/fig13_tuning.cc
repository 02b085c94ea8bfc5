// Experiment E6 — Fig. 13 / Table II: search efficiency of the four
// schedule-tuning methods at trial budgets of 10 and 50, normalized to
// exhaustive search:
//   Grid       : plain enumeration, no learning
//   XGB        : boosted cost model + simulated annealing (TVM default)
//   Anal-only  : rank everything by the analytical model
//   Anal+XGB   : ALCOP's model-assisted tuner (pre-trained on analytical
//                predictions, fine-tuned on measurements)
//
// Each strategy runs ONCE per (op, seed) at the maximum trial budget; the
// per-k curve is read off that single run with BestInFirstK(k) prefixes —
// exactly the paper's best-in-first-k definition, and several times
// cheaper than re-running the tuner per budget. Measurement itself is
// parallel (ALCOP_THREADS) and cached process-wide, so the exhaustive
// sweep is the only full compile pass per operator.
//
// Exits 1 (with a note on stderr) when the Anal+XGB average falls below
// the paper's Table II figures for it, so a cost-model change that loses
// search quality fails.
#include <cmath>
#include <cstdio>
#include <iterator>

#include "bench_util.h"
#include "target/gpu_spec.h"
#include "workloads/ops.h"

using namespace alcop;  // NOLINT(build/namespaces) - bench driver

namespace {

constexpr uint64_t kSeeds[] = {1, 2, 3};
constexpr size_t kBudgets[] = {10, 50};
constexpr size_t kMaxBudget = 50;
// The paper's Anal+XGB best-in-k fractions at each of kBudgets.
constexpr double kPaperAnalXgb[] = {0.95, 0.99};

// One full-budget run per seed; the caller reads prefix curves from them.
std::vector<tuner::TuningResult> XgbRuns(const tuner::TuningTask& task,
                                         bool pretrain) {
  std::vector<tuner::TuningResult> runs;
  for (uint64_t seed : kSeeds) {
    tuner::XgbOptions options;
    options.seed = seed;
    options.pretrain_with_analytical = pretrain;
    runs.push_back(tuner::XgbTuner(task, kMaxBudget, options));
  }
  return runs;
}

double MeanBestInK(const std::vector<tuner::TuningResult>& runs, size_t k) {
  double sum = 0.0;
  for (const tuner::TuningResult& run : runs) sum += run.BestInFirstK(k);
  return sum / static_cast<double>(runs.size());
}

}  // namespace

int main() {
  target::GpuSpec spec = target::AmpereSpec();

  std::printf("Fig. 13: best-in-k-trials of four search methods "
              "(normalized to exhaustive search, %s)\n\n",
              spec.name.c_str());
  std::printf("%-16s | %6s %6s %6s %8s | %6s %6s %6s %8s\n", "", "grid",
              "xgb", "anal", "anal+xgb", "grid", "xgb", "anal", "anal+xgb");
  std::printf("%-16s | %29s          | %29s\n", "operator", "k = 10 trials",
              "k = 50 trials");
  bench::PrintRule(84);

  double sums[8] = {0};
  int count = 0;
  for (const schedule::GemmOp& op : workloads::BenchmarkOps()) {
    tuner::TuningTask task = tuner::MakeSimulatorTask(op, spec);
    tuner::TuningResult exhaustive = tuner::ExhaustiveSearch(task);
    double best = exhaustive.BestInFirstK(exhaustive.trials.size());

    tuner::TuningResult grid = tuner::GridSearch(task, kMaxBudget);
    tuner::TuningResult anal = tuner::AnalyticalRanking(task, kMaxBudget);
    std::vector<tuner::TuningResult> xgb = XgbRuns(task, /*pretrain=*/false);
    std::vector<tuner::TuningResult> anal_xgb =
        XgbRuns(task, /*pretrain=*/true);

    double cells[8];
    int c = 0;
    for (size_t k : kBudgets) {
      cells[c++] = best / grid.BestInFirstK(k);
      cells[c++] = best / MeanBestInK(xgb, k);
      cells[c++] = best / anal.BestInFirstK(k);
      cells[c++] = best / MeanBestInK(anal_xgb, k);
    }

    std::printf("%-16s |", op.name.c_str());
    for (int i = 0; i < 8; ++i) {
      std::printf(i == 3 || i == 7 ? " %7.0f%%" : " %5.0f%%",
                  100.0 * cells[i]);
      if (i == 3) std::printf(" |");
      sums[i] += cells[i];
    }
    std::printf("\n");
    ++count;
  }

  bench::PrintRule(84);
  std::printf("%-16s |", "average");
  for (int i = 0; i < 8; ++i) {
    std::printf(i == 3 || i == 7 ? " %7.0f%%" : " %5.0f%%",
                100.0 * sums[i] / count);
    if (i == 3) std::printf(" |");
  }
  std::printf("\n\npaper reference @10 trials: XGB 70%%, Anal-only 79%%, "
              "Anal+XGB 95%%;\n@50 trials: XGB 86%%, Anal-only 92%%, "
              "Anal+XGB 99%% (>40x fewer trials than exhaustive)\n");

  int status = 0;
  for (size_t b = 0; b < std::size(kBudgets); ++b) {
    double average = sums[4 * b + 3] / count;
    if (average < kPaperAnalXgb[b]) {
      std::fprintf(stderr,
                   "fig13_tuning: Anal+XGB averages %.2f%% at %zu trials, "
                   "below the paper's %.0f%%\n",
                   100.0 * average, kBudgets[b], 100.0 * kPaperAnalXgb[b]);
      status = 1;
    }
  }
  return status;
}
