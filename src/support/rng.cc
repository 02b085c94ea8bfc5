#include "support/rng.h"

#include "support/check.h"

namespace alcop {

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  ALCOP_CHECK_LE(lo, hi);
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

size_t Rng::Choice(const std::vector<double>& weights) {
  ALCOP_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) total += w;
  ALCOP_CHECK_GT(total, 0.0);
  double pick = Uniform(0.0, total);
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (pick < acc) return i;
  }
  return weights.size() - 1;
}

}  // namespace alcop
