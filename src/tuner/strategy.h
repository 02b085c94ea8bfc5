// The four schedule-search strategies compared in the paper's Table II and
// Fig. 13:
//   - Grid search: enumerate the space in its natural order, no learning.
//   - XGB: the TVM default — a gradient-boosted cost model fit on measured
//     trials, with simulated annealing proposing new ones.
//   - Analytical-only: rank the whole space by the Table-I model's
//     predictions, measure in that order.
//   - Analytical + XGB (ALCOP): pre-train the boosted model on the
//     analytical model's predictions over the whole space, then run the
//     XGB loop — prior hardware knowledge plus measured fine-tuning.
// A bottleneck-model ranking (Fig. 12's baseline) is also provided.
#ifndef ALCOP_TUNER_STRATEGY_H_
#define ALCOP_TUNER_STRATEGY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "schedule/schedule.h"
#include "target/gpu_spec.h"
#include "tuner/space.h"

namespace alcop {
namespace tuner {

// One tuning problem: an operator, a device, an enumerated space, and a
// measurement function returning kernel cycles (+inf for configurations
// that fail to compile or fit).
//
// `measure` is invoked concurrently from the global thread pool (see
// support/parallel.h): it must be a pure function of the config —
// thread-safe and returning the same cycles for the same config — which
// is what makes every strategy's TuningResult bit-identical across
// ALCOP_THREADS settings. Proposal logic (annealing walks, model refits,
// RNG draws) always stays on the caller thread.
struct TuningTask {
  schedule::GemmOp op;
  target::GpuSpec spec;
  std::vector<schedule::ScheduleConfig> space;
  std::function<double(const schedule::ScheduleConfig&)> measure;
};

// Builds a task whose measurement runs the timing simulator.
TuningTask MakeSimulatorTask(const schedule::GemmOp& op,
                             const target::GpuSpec& spec,
                             const SpaceOptions& options = {});

struct TuningResult {
  std::vector<size_t> trials;    // space indices, in proposal order
  std::vector<double> measured;  // cycles per trial (aligned with trials)

  // Best (minimum) measured cycles among the first k trials; +inf if none
  // of them compiled.
  double BestInFirstK(size_t k) const;
  // Index into the space of the overall best trial (space.size() if none).
  size_t BestIndex(const TuningTask& task) const;
};

TuningResult GridSearch(const TuningTask& task, size_t max_trials);

// Measures the whole space (the exhaustive-search ground truth).
TuningResult ExhaustiveSearch(const TuningTask& task);

// Rank by a model's predicted cycles, measure in that order.
TuningResult AnalyticalRanking(const TuningTask& task, size_t max_trials);
TuningResult BottleneckRanking(const TuningTask& task, size_t max_trials);

// One event of the XGB search loop, for the JSONL telemetry log behind
// `alcop_cli tune --log`. Events are emitted synchronously from the
// caller thread (never from the measurement pool), in a deterministic
// order: per round, one kProposed per candidate, then one kMeasured per
// candidate. The model is fit only when a round reads it, so a
// model-guided round starts with one kRefit (the fit on every measurement
// so far), and no kRefit follows the last batch. The search itself is
// unaffected by logging — trials and measured values stay bit-identical
// with the logger unset.
struct TrialEvent {
  enum class Kind { kProposed, kMeasured, kRefit };
  Kind kind = Kind::kProposed;
  // Round counter; -1 for warm-start seeds. A kRefit carries the last
  // measured round (-1 for the fit before round 0).
  int round = 0;
  size_t trial = 0;        // index into TuningResult.trials
  size_t space_index = 0;  // the candidate's index in task.space
  std::string config;      // candidate ToString() (kProposed only)
  // GBT score of the candidate at proposal time; NaN on cold-start
  // rounds (no fitted model yet).
  double predicted_score = 0.0;
  // Table-I analytical prediction for the candidate (kProposed only);
  // computed only when a logger is set, so logging-off runs pay nothing.
  double analytical_cycles = 0.0;
  double measured_cycles = 0.0;  // kMeasured only
  // kRefit only: measured rows in the fit, and the model's pairwise
  // rank accuracy over them (concordant pairs / comparable pairs; NaN
  // with fewer than two distinct measurements).
  int64_t training_size = 0;
  double rank_accuracy = 0.0;
};

// Weight of XgbTuner's analytical pre-training pseudo-samples relative to
// measured ones.
constexpr double kPretrainWeight = 0.25;

struct XgbOptions {
  bool pretrain_with_analytical = false;  // ALCOP's Model-Assisted XGB
  uint64_t seed = 0;
  // Search telemetry sink (see TrialEvent); unset = no logging cost.
  std::function<void(const TrialEvent&)> logger;
  // Warm-start transfer (tuner/transfer.h): space indices measured as the
  // first batch, before any proposal round, and folded into the refit —
  // so a warm model replaces the cold-start random round. Purely
  // additive: with no seeds the search is bit-identical to a cold run
  // (the Rng is never consumed by seeding), and because seeds are real
  // measurements in the same TuningResult, best-found can only improve.
  // Out-of-range and duplicate indices are ignored. Logged with
  // round = -1 (like the analytical pretrain, they precede round 0).
  std::vector<size_t> warm_seeds;
};

TuningResult XgbTuner(const TuningTask& task, size_t max_trials,
                      const XgbOptions& options = {});

}  // namespace tuner
}  // namespace alcop

#endif  // ALCOP_TUNER_STRATEGY_H_
