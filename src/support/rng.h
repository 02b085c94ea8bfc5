// Deterministic random number generation for tests, workload data and the
// simulated-annealing tuner. A thin wrapper over std::mt19937_64 with the
// handful of draws the codebase needs.
#ifndef ALCOP_SUPPORT_RNG_H_
#define ALCOP_SUPPORT_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace alcop {

// Seeded pseudo-random generator. All randomized components of ALCOP take
// an explicit Rng (or seed) so every experiment is reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0) : engine_(seed) {}

  // Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform real in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0);

  // Chooses an index in [0, weights.size()) proportionally to weights.
  size_t Choice(const std::vector<double>& weights);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(values[i - 1], values[j]);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace alcop

#endif  // ALCOP_SUPPORT_RNG_H_
