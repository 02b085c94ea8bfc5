#include "tuner/anneal.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>

namespace alcop {
namespace tuner {

namespace {

// The annealing schedule of each proposal.
constexpr int kRestarts = 4;
constexpr int kWalkSteps = 300;
constexpr double kStartTemperature = 1.0;
constexpr double kEndTemperature = 0.05;

// The ten knobs the neighbor relation compares.
constexpr size_t kNumKnobs = 10;
using Knobs = std::array<int64_t, kNumKnobs>;

Knobs KnobsOf(const schedule::ScheduleConfig& c) {
  return {c.tile.tb_m,    c.tile.tb_n,   c.tile.tb_k,      c.tile.warp_m,
          c.tile.warp_n,  c.tile.warp_k, c.smem_stages,    c.reg_stages,
          c.split_k,      c.raster_block};
}

}  // namespace

bool AreNeighbors(const schedule::ScheduleConfig& a,
                  const schedule::ScheduleConfig& b) {
  Knobs ka = KnobsOf(a), kb = KnobsOf(b);
  int diffs = 0;
  for (size_t k = 0; k < kNumKnobs; ++k) {
    if (ka[k] != kb[k] && ++diffs > 1) return false;
  }
  return diffs == 1;
}

std::vector<std::vector<size_t>> BuildNeighborLists(
    const std::vector<schedule::ScheduleConfig>& space) {
  std::vector<Knobs> knobs(space.size());
  for (size_t i = 0; i < space.size(); ++i) knobs[i] = KnobsOf(space[i]);
  std::vector<std::vector<size_t>> neighbors(space.size());
  std::vector<std::pair<Knobs, size_t>> keyed(space.size());
  for (size_t f = 0; f < kNumKnobs; ++f) {
    // Key each config by its knobs with knob f blanked: configs that agree
    // on the other nine share a key, and two of them are neighbors exactly
    // when their knob f differs.
    for (size_t i = 0; i < space.size(); ++i) {
      keyed[i] = {knobs[i], i};
      keyed[i].first[f] = 0;
    }
    std::sort(keyed.begin(), keyed.end());
    for (size_t begin = 0, end = 0; begin < keyed.size(); begin = end) {
      end = begin + 1;
      while (end < keyed.size() && keyed[end].first == keyed[begin].first) {
        ++end;
      }
      for (size_t x = begin; x < end; ++x) {
        size_t i = keyed[x].second;
        for (size_t y = begin; y < end; ++y) {
          size_t j = keyed[y].second;
          if (knobs[i][f] != knobs[j][f]) neighbors[i].push_back(j);
        }
      }
    }
  }
  for (std::vector<size_t>& list : neighbors) {
    std::sort(list.begin(), list.end());
  }
  return neighbors;
}

std::vector<size_t> ProposeBatch(
    const std::vector<schedule::ScheduleConfig>& space,
    const std::vector<std::vector<size_t>>& neighbors,
    const std::function<double(size_t)>& score,
    const std::unordered_set<size_t>& exclude, size_t batch, Rng& rng) {
  if (space.empty() || batch == 0) return {};

  // Best-scored unvisited candidates found by the walk.
  std::map<double, size_t, std::greater<>> best;  // score -> index
  auto consider = [&](size_t index) {
    if (exclude.count(index) != 0) return;
    best.emplace(score(index) + 1e-12 * static_cast<double>(index), index);
  };

  for (int restart = 0; restart < kRestarts; ++restart) {
    size_t current =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(space.size()) - 1));
    double current_score = score(current);
    consider(current);
    for (int step = 0; step < kWalkSteps; ++step) {
      double progress =
          static_cast<double>(step) / std::max(kWalkSteps - 1, 1);
      double temperature =
          kStartTemperature + (kEndTemperature - kStartTemperature) * progress;
      size_t next;
      if (!neighbors[current].empty() && rng.Uniform() < 0.85) {
        const std::vector<size_t>& adjacent = neighbors[current];
        next = adjacent[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(adjacent.size()) - 1))];
      } else {
        next = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(space.size()) - 1));
      }
      double next_score = score(next);
      consider(next);
      double accept = next_score >= current_score
                          ? 1.0
                          : std::exp((next_score - current_score) /
                                     std::max(temperature, 1e-6));
      if (rng.Uniform() < accept) {
        current = next;
        current_score = next_score;
      }
    }
  }

  std::vector<size_t> proposals;
  std::unordered_set<size_t> taken;
  for (const auto& [s, index] : best) {
    if (taken.insert(index).second) {
      proposals.push_back(index);
      if (proposals.size() >= batch) break;
    }
  }
  // Fill any shortfall with random unvisited configs.
  while (proposals.size() < batch) {
    bool found = false;
    for (size_t attempt = 0; attempt < 4 * space.size(); ++attempt) {
      size_t index = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(space.size()) - 1));
      if (exclude.count(index) == 0 && taken.insert(index).second) {
        proposals.push_back(index);
        found = true;
        break;
      }
    }
    if (!found) break;  // space exhausted
  }
  return proposals;
}

}  // namespace tuner
}  // namespace alcop
