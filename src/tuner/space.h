// Schedule design space enumeration.
//
// The tuning design space is the cross product of threadblock tiles, warp
// tiles and pipeline stage counts, filtered to configurations that legally
// tile the operator. This is the space the paper's exhaustive search,
// grid search, analytical ranking and ML tuner all operate over.
#ifndef ALCOP_TUNER_SPACE_H_
#define ALCOP_TUNER_SPACE_H_

#include <cstdint>
#include <vector>

#include "schedule/schedule.h"

namespace alcop {
namespace tuner {

struct SpaceOptions {
  std::vector<int64_t> tb_m = {32, 64, 128, 256};
  std::vector<int64_t> tb_n = {32, 64, 128, 256};
  std::vector<int64_t> tb_k = {16, 32, 64};
  // Warp partitions of the threadblock tile: (tb_m/warp_m, tb_n/warp_n).
  std::vector<std::pair<int64_t, int64_t>> warp_splits = {
      {1, 1}, {1, 2}, {2, 1}, {2, 2}, {2, 4}, {4, 2}};
  std::vector<int64_t> warp_k = {16};
  std::vector<int> smem_stages = {1, 2, 3, 4};
  std::vector<int> reg_stages = {1, 2};
  // Split-K candidates, generated only when the spatial grid is
  // parallelism-starved (fewer than ~4 threadblocks per SM without the
  // split), the same pruning CUTLASS heuristics apply. Off by default:
  // neither TVM v0.8's tensor-core schedules nor the paper's ALCOP search
  // split the reduction axis, so the faithful Fig. 10 comparison excludes
  // it. WithSplitK() enables it for the extension study in the ablation
  // bench.
  std::vector<int> split_k = {1};

  // Model-guided pre-filter (the calibrated Table-I ranker as a pruner):
  // when > 0, only the model_topk feasible configurations (per
  // schedule::CheckFeasibility) with the best analytical predictions —
  // plus an exploration tail of every 64th feasible config in model-rank
  // order — are actually simulated; every other measurement
  // short-circuits to +inf (counted in "tuner.pruned_model").
  // Space, indices and trial order are unchanged, so strategies compose
  // with the filter transparently. The cut is lossy in principle; at the
  // default cut the calibrated ranker keeps the true best schedule of
  // every Fig. 10 operator (the top-k coverage gate in
  // bench/calibration.cc guards exactly this).
  int model_topk = 0;  // 0 = off
  static constexpr int kDefaultModelTopK = 128;

  static SpaceOptions WithSplitK();

  // Restrictions used by the ablation variants of the paper's Fig. 10.
  static SpaceOptions NoPipelining();           // TVM baseline
  static SpaceOptions SharedPipeliningOnly();   // ALCOP w/o multi-level
};

// All valid configurations of `options` for `op`, in deterministic
// nested-loop order (the order grid search visits them).
std::vector<schedule::ScheduleConfig> EnumerateSpace(
    const schedule::GemmOp& op, const SpaceOptions& options = {});

}  // namespace tuner
}  // namespace alcop

#endif  // ALCOP_TUNER_SPACE_H_
