#include "tuner/strategy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "perfmodel/analytical.h"
#include "perfmodel/bottleneck.h"
#include "schedule/lower.h"
#include "sim/sim_cache.h"
#include "support/check.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "tuner/anneal.h"
#include "tuner/feature.h"
#include "tuner/gbt.h"

namespace alcop {
namespace tuner {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Trials measured per round of XgbTuner.
constexpr size_t kBatchSize = 8;

// Cost-model target: higher is better, bounded for failed compiles.
double ScoreOf(double cycles) {
  if (!std::isfinite(cycles)) return -30.0;
  return -std::log(cycles);
}

// Measures the first min(order.size(), max_trials) candidates concurrently
// on the global pool. Trial order and each measured value are fixed by the
// input order alone (every iteration owns result slot i and measurement is
// pure), so the TuningResult is bit-identical across thread counts.
TuningResult MeasureInOrder(const TuningTask& task,
                            const std::vector<size_t>& order,
                            size_t max_trials) {
  ALCOP_TRACE_SCOPE("measure-batch", "tuner");
  TuningResult result;
  size_t count = std::min(order.size(), max_trials);
  static obs::Counter& trials = obs::Registry::Global().GetCounter(
      "tuner.trials", "Schedule configs measured by the tuner.");
  trials.Add(count);
  result.trials.assign(order.begin(),
                       order.begin() + static_cast<ptrdiff_t>(count));
  result.measured = support::ParallelMap(
      count, [&](size_t i) { return task.measure(task.space[order[i]]); });
  return result;
}

std::vector<size_t> RankByModel(
    const TuningTask& task,
    const std::function<double(const schedule::ScheduleConfig&)>& predict) {
  std::vector<size_t> order(task.space.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> predicted = support::ParallelMap(
      task.space.size(), [&](size_t i) { return predict(task.space[i]); });
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return predicted[a] < predicted[b];
  });
  return order;
}

// Stride of the model-guided pre-filter's exploration tail.
constexpr size_t kModelExploreStride = 64;

// Keys of the configurations the model-guided pre-filter keeps: the
// model_topk best analytical predictions among feasible configs, plus
// every kModelExploreStride-th feasible config in model-rank order (the
// exploration tail that keeps learners honest about the rest of the
// space). Keyed by ToString(), which uniquely identifies a config
// within an enumerated space.
std::unordered_set<std::string> ModelKeepSet(
    const schedule::GemmOp& op, const target::GpuSpec& spec,
    const std::vector<schedule::ScheduleConfig>& space, int topk) {
  std::vector<double> predicted =
      support::ParallelMap(space.size(), [&](size_t i) {
        if (!schedule::CheckFeasibility(op, space[i], spec).feasible) {
          return kInf;
        }
        return perfmodel::PredictCycles(op, space[i], spec);
      });
  std::vector<size_t> order;
  order.reserve(space.size());
  for (size_t i = 0; i < space.size(); ++i) {
    if (std::isfinite(predicted[i])) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return predicted[a] < predicted[b];
  });
  std::unordered_set<std::string> keep;
  for (size_t rank = 0; rank < order.size(); ++rank) {
    if (rank < static_cast<size_t>(topk) || rank % kModelExploreStride == 0) {
      keep.insert(space[order[rank]].ToString());
    }
  }
  return keep;
}

}  // namespace

TuningTask MakeSimulatorTask(const schedule::GemmOp& op,
                             const target::GpuSpec& spec,
                             const SpaceOptions& options) {
  TuningTask task;
  task.op = op;
  task.spec = spec;
  task.space = EnumerateSpace(op, options);
  // Measurement goes through the process-wide compile+simulate cache, so
  // repeated sweeps of the same space (other strategies, other seeds,
  // other trial budgets) are lookups instead of recompiles. Infeasible
  // configs cost no compile there: CompileSimProgram checks the
  // feasibility verdict first.
  // The model-guided cut is resolved once, here, into an immutable key
  // set; `measure` stays a pure function of the config (the shared_ptr is
  // read-only after construction, so concurrent measurement is safe).
  std::shared_ptr<const std::unordered_set<std::string>> model_keep;
  if (options.model_topk > 0) {
    model_keep = std::make_shared<const std::unordered_set<std::string>>(
        ModelKeepSet(op, spec, task.space, options.model_topk));
  }
  task.measure = [op, spec,
                  model_keep](const schedule::ScheduleConfig& config) {
    if (model_keep && model_keep->count(config.ToString()) == 0) {
      static obs::Counter& pruned = obs::Registry::Global().GetCounter(
          "tuner.pruned_model",
          "Configs rejected by the learned-model pre-filter.");
      pruned.Increment();
      return kInf;
    }
    sim::KernelTiming timing = sim::CachedCompileAndSimulate(op, config, spec);
    return timing.feasible ? timing.cycles : kInf;
  };
  return task;
}

double TuningResult::BestInFirstK(size_t k) const {
  double best = kInf;
  for (size_t i = 0; i < trials.size() && i < k; ++i) {
    best = std::min(best, measured[i]);
  }
  return best;
}

size_t TuningResult::BestIndex(const TuningTask& task) const {
  size_t best = task.space.size();
  double best_cycles = kInf;
  for (size_t i = 0; i < trials.size(); ++i) {
    if (measured[i] < best_cycles) {
      best_cycles = measured[i];
      best = trials[i];
    }
  }
  return best;
}

TuningResult GridSearch(const TuningTask& task, size_t max_trials) {
  std::vector<size_t> order(task.space.size());
  std::iota(order.begin(), order.end(), 0);
  return MeasureInOrder(task, order, max_trials);
}

TuningResult ExhaustiveSearch(const TuningTask& task) {
  return GridSearch(task, task.space.size());
}

TuningResult AnalyticalRanking(const TuningTask& task, size_t max_trials) {
  auto predict = [&task](const schedule::ScheduleConfig& config) {
    return perfmodel::PredictCycles(task.op, config, task.spec);
  };
  return MeasureInOrder(task, RankByModel(task, predict), max_trials);
}

TuningResult BottleneckRanking(const TuningTask& task, size_t max_trials) {
  auto predict = [&task](const schedule::ScheduleConfig& config) {
    return perfmodel::BottleneckPredictCycles(task.op, config, task.spec);
  };
  return MeasureInOrder(task, RankByModel(task, predict), max_trials);
}

TuningResult XgbTuner(const TuningTask& task, size_t max_trials,
                      const XgbOptions& options) {
  TuningResult result;
  if (task.space.empty()) return result;
  Rng rng(options.seed);

  // Feature matrix for the whole space (cheap, reused every round).
  std::vector<std::vector<double>> features = support::ParallelMap(
      task.space.size(),
      [&](size_t i) { return ExtractFeatures(task.op, task.space[i], task.spec); });

  // The model's training rows. With pre-training they start as one
  // pseudo-sample per configuration in the space, the analytical model's
  // predicted score, so row i is config i; each measured batch is appended
  // after them, so every fit reads the same rows in the same order.
  std::vector<std::vector<double>> train_x;
  std::vector<double> train_y;
  std::vector<double> train_w;
  if (options.pretrain_with_analytical) {
    train_x = features;
    train_y = support::ParallelMap(task.space.size(), [&](size_t i) {
      return ScoreOf(
          perfmodel::PredictCycles(task.op, task.space[i], task.spec));
    });
    train_w.assign(task.space.size(), kPretrainWeight);
  }

  GbtModel model;
  std::unordered_set<size_t> measured_set;
  // Annealing adjacency, built once on the first model-guided round
  // instead of every round.
  std::vector<std::vector<size_t>> neighbors;

  // Proposal and refitting stay on the caller thread (the single Rng and
  // the model are not shared with the pool); only candidate measurement
  // and batch prediction fan out, so trial order is thread-count invariant.
  // The model is fit only when a round is about to read it, on every
  // measurement so far: no fit follows the last batch, and none fits the
  // pretrain rows alone when warm-start seeds are measured before round 0.
  // `round_number` is the last measured round (-1 before round 0); the
  // fit's prediction of every training row is returned.
  auto refit = [&](int round_number) {
    ALCOP_TRACE_SCOPE("refit", "tuner");
    static obs::Counter& refits = obs::Registry::Global().GetCounter(
        "tuner.refits", "Cost-model refits during search.");
    refits.Increment();
    std::vector<double> fitted = model.Fit(train_x, train_y, train_w);
    if (options.logger) {
      TrialEvent event;
      event.kind = TrialEvent::Kind::kRefit;
      event.round = round_number;
      event.training_size = static_cast<int64_t>(result.trials.size());
      event.rank_accuracy = std::numeric_limits<double>::quiet_NaN();
      // Pairwise rank accuracy of the freshly fit model over everything
      // measured so far (the last training rows, in trial order): of the
      // pairs the measurements order, how many does the model order the
      // same way.
      const double* predicted =
          fitted.data() + (fitted.size() - result.trials.size());
      int64_t concordant = 0;
      int64_t comparable = 0;
      for (size_t i = 0; i < result.trials.size(); ++i) {
        for (size_t j = i + 1; j < result.trials.size(); ++j) {
          double truth =
              ScoreOf(result.measured[i]) - ScoreOf(result.measured[j]);
          double guess = predicted[i] - predicted[j];
          if (truth == 0.0 || guess == 0.0) continue;  // ties carry no rank
          ++comparable;
          if ((truth > 0.0) == (guess > 0.0)) ++concordant;
        }
      }
      if (comparable > 0) {
        event.rank_accuracy = static_cast<double>(concordant) /
                              static_cast<double>(comparable);
      }
      options.logger(event);
    }
    return fitted;
  };

  // Measures one batch of space indices and records it: its proposed and
  // measured events, the tuner.trials counter, and the result. `predicted`
  // holds the whole-space model scores, empty when the batch was not
  // model-guided.
  static obs::Counter& trials = obs::Registry::Global().GetCounter(
      "tuner.trials", "Schedule configs measured by the tuner.");
  auto measure = [&](const std::vector<size_t>& indices, int round_number,
                     const std::vector<double>& predicted) {
    if (options.logger) {
      for (size_t i = 0; i < indices.size(); ++i) {
        TrialEvent event;
        event.kind = TrialEvent::Kind::kProposed;
        event.round = round_number;
        event.trial = result.trials.size() + i;
        event.space_index = indices[i];
        event.config = task.space[indices[i]].ToString();
        event.predicted_score =
            predicted.empty() ? std::numeric_limits<double>::quiet_NaN()
                              : predicted[indices[i]];
        event.analytical_cycles = perfmodel::PredictCycles(
            task.op, task.space[indices[i]], task.spec);
        options.logger(event);
      }
    }
    std::vector<double> cycles =
        support::ParallelMap(indices.size(), [&](size_t i) {
          return task.measure(task.space[indices[i]]);
        });
    trials.Add(indices.size());
    for (size_t i = 0; i < indices.size(); ++i) {
      if (options.logger) {
        TrialEvent event;
        event.kind = TrialEvent::Kind::kMeasured;
        event.round = round_number;
        event.trial = result.trials.size();
        event.space_index = indices[i];
        event.measured_cycles = cycles[i];
        options.logger(event);
      }
      result.trials.push_back(indices[i]);
      result.measured.push_back(cycles[i]);
      measured_set.insert(indices[i]);
      train_x.push_back(features[indices[i]]);
      train_y.push_back(ScoreOf(cycles[i]));
      train_w.push_back(1.0);
    }
  };

  // Warm-start seeds: measured as one batch (round -1) before the first
  // proposal round. They consume trial budget like any other batch, and
  // because they give the model data, the main loop starts model-guided
  // instead of from the cold-start random round.
  std::vector<size_t> seeds;
  for (size_t index : options.warm_seeds) {
    if (index >= task.space.size()) continue;
    if (seeds.size() >= max_trials) break;
    if (std::find(seeds.begin(), seeds.end(), index) != seeds.end()) {
      continue;
    }
    seeds.push_back(index);
  }
  if (!seeds.empty()) measure(seeds, -1, {});

  static obs::Counter& rounds = obs::Registry::Global().GetCounter(
      "tuner.rounds", "Search rounds executed by the XGB tuner.");
  int round = 0;
  while (result.trials.size() < max_trials &&
         measured_set.size() < task.space.size()) {
    ALCOP_TRACE_SCOPE("xgb-round", "tuner");
    rounds.Increment();
    size_t batch = std::min(kBatchSize, max_trials - result.trials.size());
    std::vector<size_t> proposals;
    std::vector<double> predicted;  // whole-space scores; empty cold start
    if (!options.pretrain_with_analytical && result.trials.empty()) {
      // Cold start: nothing to fit yet; a random batch, deduplicated in
      // O(1) per draw.
      std::unordered_set<size_t> proposed;
      while (proposals.size() < batch &&
             measured_set.size() + proposals.size() < task.space.size()) {
        size_t index = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(task.space.size()) - 1));
        if (measured_set.count(index) == 0 && proposed.insert(index).second) {
          proposals.push_back(index);
        }
      }
    } else {
      // Fit on every measurement so far (each earlier round measured new
      // trials, so no earlier fit is current), score the whole space, and
      // let the annealing walk score candidates by table lookup. With
      // pre-training the space's configs are the first training rows, so
      // the fit has already scored them; otherwise predict them in one
      // parallel batch.
      std::vector<double> fitted = refit(round - 1);
      if (neighbors.empty()) neighbors = BuildNeighborLists(task.space);
      if (options.pretrain_with_analytical) {
        fitted.resize(task.space.size());
        predicted = std::move(fitted);
      } else {
        predicted = model.PredictBatch(features);
      }
      auto score = [&](size_t index) { return predicted[index]; };
      proposals =
          ProposeBatch(task.space, neighbors, score, measured_set, batch, rng);
    }
    if (proposals.empty()) break;
    measure(proposals, round, predicted);
    ++round;
  }
  return result;
}

}  // namespace tuner
}  // namespace alcop
