#include "tuner/gbt.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "support/check.h"
#include "support/parallel.h"

namespace alcop {
namespace tuner {

namespace {

// The ensemble's hyperparameters.
constexpr int kNumTrees = 80;
constexpr int kMaxDepth = 4;
constexpr double kLearningRate = 0.15;
constexpr int kMinSamplesLeaf = 2;
constexpr double kL2 = 1.0;  // L2 regularization on leaf values (lambda)

// One node of the ensemble. Every tree lives in one flat array in
// preorder, so a split's left child is the next node and only the right
// child's index is stored.
struct Node {
  int feature = -1;  // -1 for leaves
  int right = -1;    // index of the right child (splits only)
  // Splits go left if x[feature] <= value; a leaf's value is its output.
  double value = 0.0;
};

double TreeValue(const Node* nodes, int root, const double* x) {
  const Node* node = nodes + root;
  while (node->feature >= 0) {
    node = x[node->feature] <= node->value ? node + 1 : nodes + node->right;
  }
  return node->value;
}

// A row's gradient (weight x residual) and hessian (weight) for squared
// error, side by side so a histogram pass reads both with one access.
struct Grad {
  double g;
  double h;
};

// One histogram bin: the sums over a node's rows that take one value of
// one feature. Bins filled by subtraction carry rounding in g and h, so
// only the count says whether a bin is empty.
struct Bin {
  double g = 0.0;
  double h = 0.0;
  int64_t count = 0;
};

struct Split {
  double gain = 0.0;
  double threshold = 0.0;
  size_t feature = 0;      // index into TreeBuilder::features_
  uint32_t last_left = 0;  // the feature's last slot on the left
};

// A leaf of the tree being built and the range of rows_ it holds.
struct Leaf {
  int node;
  size_t begin;
  size_t end;
};

// Exact-bin histogram tree building. Once per Fit, every feature with more
// than one value gets one bin per distinct value (so no threshold between
// two values is lost, however many there are), and each row's bin of
// every such feature is stored row-major in `slots_` as an index into one
// histogram spanning all of them. Every tree then splits one row list: a
// node owns a range of `rows_`, in ascending row order, and is split by a
// stable partition of that range. A node's histogram holds (g, h, count)
// per bin; the smaller child's is summed from its rows and the larger
// child's is the parent's minus it, computed in place.
//
// A split's threshold is the midpoint of the two adjacent non-empty bins'
// values a < b, or a should the midpoint round up to b, so `value <=
// threshold` (the test Predict applies) holds for exactly the bins up to
// a. Partitioning by bin therefore gives every leaf exactly the rows
// Predict routes there.
class TreeBuilder {
 public:
  TreeBuilder(const std::vector<std::vector<double>>& x,
              const std::vector<double>& weight)
      : n_(x.size()), weight_(weight), grad_(n_), rows_(n_), scratch_(n_) {
    std::vector<double> values(n_);
    for (size_t f = 0; f < x[0].size(); ++f) {
      for (size_t i = 0; i < n_; ++i) values[i] = x[i][f];
      std::sort(values.begin(), values.end());
      auto distinct_end = std::unique(values.begin(), values.end());
      // A constant feature has no split.
      if (distinct_end - values.begin() == 1) continue;
      features_.push_back(static_cast<int>(f));
      first_slot_.push_back(slot_values_.size());
      slot_values_.insert(slot_values_.end(), values.begin(), distinct_end);
    }
    first_slot_.push_back(slot_values_.size());
    ALCOP_CHECK_LE(slot_values_.size(), size_t{UINT32_MAX}) << "too many bins";
    size_t width = features_.size();
    slots_.resize(n_ * width);
    for (size_t i = 0; i < n_; ++i) {
      for (size_t k = 0; k < width; ++k) {
        const double* first = slot_values_.data() + first_slot_[k];
        const double* last = slot_values_.data() + first_slot_[k + 1];
        double value = x[i][static_cast<size_t>(features_[k])];
        slots_[i * width + k] = static_cast<uint32_t>(
            std::lower_bound(first, last, value) - slot_values_.data());
      }
    }
    histograms_.resize(static_cast<size_t>(kMaxDepth) * slot_values_.size());
  }

  // Appends one tree fit to `residual` to `nodes`.
  void Build(const std::vector<double>& residual, std::vector<Node>* nodes) {
    for (size_t i = 0; i < n_; ++i) {
      grad_[i] = {weight_[i] * residual[i], weight_[i]};
    }
    std::iota(rows_.begin(), rows_.end(), 0u);
    nodes_ = nodes;
    leaves_.clear();
    Bin* root = Histogram(0);
    if (Searched(0, n_)) Accumulate(0, n_, root);
    BuildNode(0, n_, 0, root);
  }

  // Adds kLearningRate x leaf value to `prediction` for every row, for the
  // tree the last Build appended. That is the term Predict adds for the
  // tree, because each leaf holds exactly the rows routed to it.
  void AddTreeTo(std::vector<double>* prediction) const {
    for (const Leaf& leaf : leaves_) {
      double step =
          kLearningRate * (*nodes_)[static_cast<size_t>(leaf.node)].value;
      for (size_t i = leaf.begin; i < leaf.end; ++i) {
        (*prediction)[rows_[i]] += step;
      }
    }
  }

 private:
  // The histogram buffer of depth `depth`: the root's is 0; a split at
  // depth d keeps its own buffer for the larger child and gives the
  // smaller child buffer d + 1, which the larger child's subtree (built
  // from depth d + 2 down) never touches.
  Bin* Histogram(int depth) {
    return histograms_.data() +
           static_cast<size_t>(depth) * slot_values_.size();
  }

  // Whether a node of `count` rows at `depth` looks for a split.
  static bool Searched(int depth, size_t count) {
    return depth < kMaxDepth &&
           count >= static_cast<size_t>(2 * kMinSamplesLeaf);
  }

  // Sums rows_[begin, end) into `hist`, in row-list order.
  void Accumulate(size_t begin, size_t end, Bin* hist) const {
    std::fill(hist, hist + slot_values_.size(), Bin{});
    size_t width = features_.size();
    for (size_t i = begin; i < end; ++i) {
      uint32_t row = rows_[i];
      Grad grad = grad_[row];
      const uint32_t* slot = slots_.data() + row * width;
      for (size_t k = 0; k < width; ++k) {
        Bin& bin = hist[slot[k]];
        bin.g += grad.g;
        bin.h += grad.h;
        ++bin.count;
      }
    }
  }

  // `hist` is the node's histogram when Searched(depth, end - begin).
  int BuildNode(size_t begin, size_t end, int depth, Bin* hist) {
    int index = static_cast<int>(nodes_->size());
    nodes_->emplace_back();
    size_t count = end - begin;
    double g = 0.0, h = 0.0;
    for (size_t i = begin; i < end; ++i) {
      g += grad_[rows_[i]].g;
      h += grad_[rows_[i]].h;
    }
    Split split;
    if (Searched(depth, count)) {
      double parent_loss = -(g * g) / (h + kL2);
      // Per-feature bests reduce in feature order under the same epsilon
      // the scoring uses, so ties break toward the lowest feature index.
      for (size_t k = 0; k < features_.size(); ++k) {
        Split candidate = BestSplitAlong(k, hist, count, g, h, parent_loss);
        if (candidate.gain > split.gain + 1e-12) split = candidate;
      }
    }
    if (split.gain <= 0.0) {
      (*nodes_)[static_cast<size_t>(index)].value = g / (h + kL2);
      leaves_.push_back({index, begin, end});
      return index;
    }
    (*nodes_)[static_cast<size_t>(index)].feature = features_[split.feature];
    (*nodes_)[static_cast<size_t>(index)].value = split.threshold;

    size_t mid = Partition(begin, end, split.feature, split.last_left);

    size_t left_count = mid - begin, right_count = end - mid;
    Bin* left = hist;
    Bin* right = hist;
    if (Searched(depth + 1, left_count) || Searched(depth + 1, right_count)) {
      Bin* smaller = Histogram(depth + 1);
      if (left_count <= right_count) {
        Accumulate(begin, mid, smaller);
        left = smaller;
      } else {
        Accumulate(mid, end, smaller);
        right = smaller;
      }
      for (size_t s = 0; s < slot_values_.size(); ++s) {
        hist[s].g -= smaller[s].g;
        hist[s].h -= smaller[s].h;
        hist[s].count -= smaller[s].count;
      }
    }
    BuildNode(begin, mid, depth + 1, left);
    int right_index = BuildNode(mid, end, depth + 1, right);
    (*nodes_)[static_cast<size_t>(index)].right = right_index;
    return index;
  }

  // Best split along kept feature k of a node: a prefix scan of its
  // histogram in value order, with a cut between each two adjacent
  // non-empty bins. `g`/`h` are the node totals.
  Split BestSplitAlong(size_t k, const Bin* hist, size_t count, double g,
                       double h, double parent_loss) const {
    Split best;
    best.feature = k;
    int64_t min_leaf = kMinSamplesLeaf;
    int64_t total = static_cast<int64_t>(count);
    double gl = 0.0, hl = 0.0;
    int64_t left_count = 0;
    size_t previous = 0;  // the last non-empty slot scanned
    for (size_t s = first_slot_[k]; s < first_slot_[k + 1]; ++s) {
      const Bin& bin = hist[s];
      if (bin.count == 0) continue;
      if (left_count >= min_leaf && total - left_count >= min_leaf) {
        double gr = g - gl, hr = h - hl;
        double loss = -(gl * gl) / (hl + kL2) - (gr * gr) / (hr + kL2);
        double gain = parent_loss - loss;
        if (gain > best.gain + 1e-12) {
          double a = slot_values_[previous], b = slot_values_[s];
          double midpoint = 0.5 * (a + b);
          best.gain = gain;
          best.threshold = midpoint < b ? midpoint : a;
          best.last_left = static_cast<uint32_t>(previous);
        }
      }
      gl += bin.g;
      hl += bin.h;
      left_count += bin.count;
      previous = s;
    }
    return best;
  }

  // Stable partition of rows_[begin, end) into the rows whose slot of
  // kept feature k is at most `last_left`, then the rest; returns where
  // the rest begins. The rest go through scratch_.
  size_t Partition(size_t begin, size_t end, size_t k, uint32_t last_left) {
    size_t width = features_.size();
    size_t l = begin, r = 0;
    for (size_t i = begin; i < end; ++i) {
      uint32_t row = rows_[i];
      bool left = slots_[row * width + k] <= last_left;
      rows_[l] = row;
      scratch_[r] = row;
      l += left;
      r += !left;
    }
    std::copy(scratch_.begin(), scratch_.begin() + static_cast<ptrdiff_t>(r),
              rows_.begin() + static_cast<ptrdiff_t>(l));
    return l;
  }

  size_t n_;
  const std::vector<double>& weight_;
  std::vector<Grad> grad_;  // per row, for the current tree
  // The feature of each kept index: every feature taking more than one
  // value, in feature order.
  std::vector<int> features_;
  // Kept feature k's bins are slots [first_slot_[k], first_slot_[k + 1]),
  // in ascending value order; slot_values_ holds each slot's value.
  std::vector<size_t> first_slot_;
  std::vector<double> slot_values_;
  std::vector<uint32_t> slots_;  // row i's slot of feature k at i * K + k
  std::vector<Bin> histograms_;  // kMaxDepth buffers of one slot each
  std::vector<uint32_t> rows_;   // the current tree's row lists
  std::vector<uint32_t> scratch_;
  std::vector<Leaf> leaves_;  // the current tree's leaves
  std::vector<Node>* nodes_ = nullptr;
};

}  // namespace

struct GbtModel::Impl {
  double base = 0.0;
  std::vector<Node> nodes;  // every tree, in fit order
  std::vector<int> roots;   // each tree's root index into `nodes`
  bool fitted = false;
};

GbtModel::GbtModel() : impl_(std::make_unique<Impl>()) {}
GbtModel::~GbtModel() = default;
GbtModel::GbtModel(GbtModel&&) noexcept = default;
GbtModel& GbtModel::operator=(GbtModel&&) noexcept = default;

std::vector<double> GbtModel::Fit(const std::vector<std::vector<double>>& x,
                                  const std::vector<double>& y,
                                  const std::vector<double>& weights) {
  ALCOP_CHECK(!x.empty()) << "cannot fit GBT on empty data";
  ALCOP_CHECK_EQ(x.size(), y.size());
  ALCOP_CHECK_LE(x.size(), size_t{UINT32_MAX}) << "too many rows";
  for (const auto& row : x) {
    ALCOP_CHECK_EQ(row.size(), x[0].size()) << "ragged feature rows";
    for (double v : row) ALCOP_CHECK(!std::isnan(v)) << "NaN feature";
  }
  std::vector<double> weight =
      weights.empty() ? std::vector<double>(x.size(), 1.0) : weights;
  ALCOP_CHECK_EQ(weight.size(), x.size());

  // Base prediction: weighted mean.
  double sum = 0.0, wsum = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    sum += weight[i] * y[i];
    wsum += weight[i];
  }
  impl_->base = sum / wsum;
  impl_->nodes.clear();
  impl_->roots.clear();

  TreeBuilder builder(x, weight);
  std::vector<double> prediction(y.size(), impl_->base);
  std::vector<double> residual(y.size());
  for (int round = 0; round < kNumTrees; ++round) {
    for (size_t i = 0; i < y.size(); ++i) residual[i] = y[i] - prediction[i];
    int root = static_cast<int>(impl_->nodes.size());
    builder.Build(residual, &impl_->nodes);
    // Stop early if the tree is a pure leaf contributing nothing.
    const Node& top = impl_->nodes[static_cast<size_t>(root)];
    if (top.feature < 0 && !(std::abs(top.value) > 1e-12)) {
      impl_->nodes.resize(static_cast<size_t>(root));
      break;
    }
    impl_->roots.push_back(root);
    builder.AddTreeTo(&prediction);
  }
  impl_->fitted = true;
  return prediction;
}

double GbtModel::Predict(const std::vector<double>& features) const {
  ALCOP_CHECK(impl_->fitted) << "GBT model queried before Fit";
  double out = impl_->base;
  for (int root : impl_->roots) {
    out += kLearningRate *
           TreeValue(impl_->nodes.data(), root, features.data());
  }
  return out;
}

std::vector<double> GbtModel::PredictBatch(
    const std::vector<std::vector<double>>& rows) const {
  ALCOP_CHECK(impl_->fitted) << "GBT model queried before Fit";
  return support::ParallelMap(rows.size(),
                              [&](size_t i) { return Predict(rows[i]); });
}

bool GbtModel::IsFitted() const { return impl_->fitted; }

}  // namespace tuner
}  // namespace alcop
