// Gradient-boosted regression trees: the from-scratch stand-in for
// XGBoost (see DESIGN.md substitution table). Squared-error boosting, 80
// trees of depth at most 4 (the hyperparameters are constants in gbt.cc),
// with exact-bin histogram split finding: one bin per distinct value of
// each feature, so every threshold an exact greedy search would consider
// is considered. Sized for the tuner's refits, which fit 960–1,952 rows (a
// whole Fig. 10 space of analytical pseudo-samples plus the measured
// trials) before each model-guided round.
#ifndef ALCOP_TUNER_GBT_H_
#define ALCOP_TUNER_GBT_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace alcop {
namespace tuner {

class GbtModel {
 public:
  GbtModel();
  ~GbtModel();
  GbtModel(GbtModel&&) noexcept;
  GbtModel& operator=(GbtModel&&) noexcept;

  // Fits on rows `x` (equal-length feature vectors, no NaN) with targets
  // `y` and optional per-sample weights. Refitting replaces the previous
  // ensemble. Runs entirely on the calling thread. Returns the fitted
  // model's prediction of every training row, read off the trees' leaves
  // as they are built: element i equals Predict(x[i]) bit for bit.
  std::vector<double> Fit(const std::vector<std::vector<double>>& x,
                          const std::vector<double>& y,
                          const std::vector<double>& weights = {});

  double Predict(const std::vector<double>& features) const;

  // Predicts every row, splitting the rows across the global pool. Each
  // row walks the one flat node array exactly as Predict does, so element
  // i equals Predict(rows[i]) bit for bit for any thread count.
  std::vector<double> PredictBatch(
      const std::vector<std::vector<double>>& rows) const;

  bool IsFitted() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tuner
}  // namespace alcop

#endif  // ALCOP_TUNER_GBT_H_
