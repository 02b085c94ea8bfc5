// Simulated-annealing proposal over the enumerated schedule space — the
// sampling method of TVM's XGBoost tuner (Table II). The walk mutates one
// schedule knob at a time, accepts by the cost model's predicted score,
// and returns the best-scored unvisited configurations it encountered.
#ifndef ALCOP_TUNER_ANNEAL_H_
#define ALCOP_TUNER_ANNEAL_H_

#include <functional>
#include <unordered_set>
#include <vector>

#include "schedule/schedule.h"
#include "support/rng.h"

namespace alcop {
namespace tuner {

// Single-knob adjacency lists for the whole space, each sorted ascending:
// list i holds every j with AreNeighbors(space[i], space[j]). Built on the
// calling thread by grouping, for each knob, the configs that agree on the
// other nine, so the cost grows with the space times its log rather than
// with every pair. Callers that propose repeatedly over the same space
// (XgbTuner's per-batch loop) build this once.
std::vector<std::vector<size_t>> BuildNeighborLists(
    const std::vector<schedule::ScheduleConfig>& space);

// Proposes up to `batch` distinct indices into `space`, maximizing
// `score(index)` (higher is better), skipping indices in `exclude`: four
// restarts of a 300-step walk cooling from temperature 1 to 0.05 over
// `neighbors`, which must be BuildNeighborLists(space).
std::vector<size_t> ProposeBatch(
    const std::vector<schedule::ScheduleConfig>& space,
    const std::vector<std::vector<size_t>>& neighbors,
    const std::function<double(size_t)>& score,
    const std::unordered_set<size_t>& exclude, size_t batch, Rng& rng);

// Neighbor relation used by the walk: configs differing in exactly one of
// ten knobs (a threadblock or warp tile dimension, a stage count, split_k
// or raster_block). The on/off flags such as swizzle are not knobs, so
// configs differing only in those are not neighbors. Exposed for tests.
bool AreNeighbors(const schedule::ScheduleConfig& a,
                  const schedule::ScheduleConfig& b);

}  // namespace tuner
}  // namespace alcop

#endif  // ALCOP_TUNER_ANNEAL_H_
