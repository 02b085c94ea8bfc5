#include "tuner/gbt.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

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

// One element of a presorted feature order: a row and the rank of its
// value among the feature's distinct values, so split scans compare
// values by reading the order sequentially.
struct Entry {
  int32_t row;
  int32_t rank;
};

// Prefix sums of gradient and hessian over the first `left_count` entries
// of a node's order, where entries left_count - 1 and left_count differ in
// value.
struct Cut {
  double gl;
  double hl;
  size_t left_count;
};

// A row's gradient (weight x residual) and hessian (weight) for squared
// error, side by side so a scan reads both with one access.
struct Grad {
  double g;
  double h;
};

struct Split {
  double gain = 0.0;
  double threshold = 0.0;
  // The left child is the first `left_count` entries of the chosen order
  // (splits only fall between distinct values, so the prefix is exactly
  // the x <= threshold set).
  size_t left_count = 0;
  size_t block = 0;  // the chosen order's block in TreeBuilder
  int feature = -1;
};

// Exact-greedy tree building with presorted feature orders, as in XGBoost.
// Once per Fit the rows are copied column by column into `sorted_`: one
// block of n entries per kept feature, sorted by (value, row). Every tree
// then partitions those blocks into `work_`, where a node owns the same
// range [begin, end) of every block; a split stably partitions that range
// in place, so the children's ranges stay sorted and no node allocates.
// A feature whose (row, rank) order equals a kept block's gets no block:
// the two would partition alike and scan alike at every node, and the
// earlier feature wins every tie, so the later one could never be chosen.
//
// Summation orders are part of the result: node totals and leaf values
// sum in feature 0's order (block 0, kept even when feature 0 is
// constant), and each split scan prefix-sums in its own feature's order.
class TreeBuilder {
 public:
  TreeBuilder(const std::vector<std::vector<double>>& x,
              const std::vector<double>& weight)
      : n_(x.size()),
        weight_(weight),
        grad_(n_),
        goes_left_(n_),
        scratch_(n_),
        cuts_(n_) {
    std::vector<std::pair<double, int32_t>> column(n_);
    std::vector<Entry> block(n_);
    sorted_.reserve(x[0].size() * n_);
    for (size_t f = 0; f < x[0].size(); ++f) {
      for (size_t i = 0; i < n_; ++i) {
        column[i] = {x[i][f], static_cast<int32_t>(i)};
      }
      std::sort(column.begin(), column.end(),
                [](const auto& a, const auto& b) {
                  if (a.first != b.first) return a.first < b.first;
                  return a.second < b.second;
                });
      std::vector<double> values = {column[0].first};
      for (size_t i = 0; i < n_; ++i) {
        if (column[i].first != values.back()) {
          values.push_back(column[i].first);
        }
        block[i] = {column[i].second, static_cast<int32_t>(values.size() - 1)};
      }
      // A feature with one value has no split; feature 0 keeps its block
      // regardless, because that order fixes the summation order.
      if (values.size() == 1) {
        if (f > 0) continue;
        first_searched_ = 1;
      }
      if (HasBlock(block)) continue;
      features_.push_back(static_cast<int>(f));
      values_.push_back(std::move(values));
      sorted_.insert(sorted_.end(), block.begin(), block.end());
    }
    work_.resize(sorted_.size());
  }

  // Appends one tree fit to `residual` to `nodes`.
  void Build(const std::vector<double>& residual, std::vector<Node>* nodes) {
    for (size_t i = 0; i < n_; ++i) {
      grad_[i] = {weight_[i] * residual[i], weight_[i]};
    }
    nodes_ = nodes;
    BuildNode(sorted_.data(), 0, n_, 0);
  }

 private:
  // Whether `block` equals a kept block entry for entry.
  bool HasBlock(const std::vector<Entry>& block) const {
    for (size_t k = 0; k < features_.size(); ++k) {
      if (std::equal(block.begin(), block.end(), sorted_.data() + k * n_,
                     [](const Entry& a, const Entry& b) {
                       return a.row == b.row && a.rank == b.rank;
                     })) {
        return true;
      }
    }
    return false;
  }

  int BuildNode(const Entry* orders, size_t begin, size_t end, int depth) {
    int index = static_cast<int>(nodes_->size());
    nodes_->emplace_back();
    size_t count = end - begin;
    double g = 0.0, h = 0.0;
    for (const Entry* e = orders + begin; e != orders + end; ++e) {
      g += grad_[static_cast<size_t>(e->row)].g;
      h += grad_[static_cast<size_t>(e->row)].h;
    }
    Split split;
    if (depth < kMaxDepth &&
        count >= static_cast<size_t>(2 * kMinSamplesLeaf)) {
      double parent_loss = -(g * g) / (h + kL2);
      // Per-feature bests reduce in feature order under the same epsilon
      // the scoring uses, so ties break toward the lowest feature index.
      for (size_t k = first_searched_; k < features_.size(); ++k) {
        Split candidate = BestSplitAlong(orders + k * n_ + begin, values_[k],
                                         count, g, h, parent_loss);
        if (candidate.gain > split.gain + 1e-12) {
          split = candidate;
          split.block = k;
          split.feature = features_[k];
        }
      }
    }
    if (split.feature < 0) {
      (*nodes_)[static_cast<size_t>(index)].value = g / (h + kL2);
      return index;
    }
    (*nodes_)[static_cast<size_t>(index)].feature = split.feature;
    (*nodes_)[static_cast<size_t>(index)].value = split.threshold;

    const Entry* chosen = orders + split.block * n_ + begin;
    for (size_t i = 0; i < count; ++i) {
      goes_left_[static_cast<size_t>(chosen[i].row)] = i < split.left_count;
    }
    // Children at max_depth are leaves and read only block 0. In place, the
    // chosen order is already partitioned: its prefix is the left.
    size_t blocks = depth + 1 < kMaxDepth ? features_.size() : 1;
    for (size_t k = 0; k < blocks; ++k) {
      const Entry* from = orders + k * n_ + begin;
      Entry* to = work_.data() + k * n_ + begin;
      if (from != to || k != split.block) {
        Partition(from, to, count, split.left_count);
      }
    }

    BuildNode(work_.data(), begin, begin + split.left_count, depth + 1);
    int right =
        BuildNode(work_.data(), begin + split.left_count, end, depth + 1);
    (*nodes_)[static_cast<size_t>(index)].right = right;
    return index;
  }

  // Best split along one order of a node: a prefix scan of gradient and
  // hessian in (value, row) order. The scan only records the prefix sums
  // at each boundary between distinct values in cuts_, which keeps its
  // loop free of the scoring's register pressure; the cuts are then scored
  // in scan order. `g`/`h` are the node totals.
  Split BestSplitAlong(const Entry* e, const std::vector<double>& values,
                       size_t count, double g, double h, double parent_loss) {
    Cut* cuts = cuts_.data();
    size_t num_cuts = 0;
    double gl = 0.0, hl = 0.0;
    for (size_t i = 0; i + 1 < count; ++i) {
      const Grad& grad = grad_[static_cast<size_t>(e[i].row)];
      gl += grad.g;
      hl += grad.h;
      if (e[i].rank != e[i + 1].rank) cuts[num_cuts++] = {gl, hl, i + 1};
    }
    Split best;
    size_t min_leaf = static_cast<size_t>(kMinSamplesLeaf);
    for (const Cut* cut = cuts; cut != cuts + num_cuts; ++cut) {
      size_t left_count = cut->left_count;
      if (left_count < min_leaf || count - left_count < min_leaf) continue;
      double gr = g - cut->gl, hr = h - cut->hl;
      double loss = -(cut->gl * cut->gl) / (cut->hl + kL2) -
                    (gr * gr) / (hr + kL2);
      double gain = parent_loss - loss;
      if (gain > best.gain + 1e-12) {
        best.gain = gain;
        double x_here = values[static_cast<size_t>(e[left_count - 1].rank)];
        double x_next = values[static_cast<size_t>(e[left_count].rank)];
        best.threshold = 0.5 * (x_here + x_next);
        best.left_count = left_count;
      }
    }
    return best;
  }

  // Stable partition of `count` entries by goes_left_, lefts first. The
  // rights go through scratch_, so `from` may equal `to`; writes to `to`
  // never pass the read position or index `left_count`.
  void Partition(const Entry* from, Entry* to, size_t count,
                 size_t left_count) {
    Entry* rights = scratch_.data();
    size_t l = 0, r = 0;
    for (size_t i = 0; i < count; ++i) {
      Entry e = from[i];
      bool left = goes_left_[static_cast<size_t>(e.row)] != 0;
      to[l] = e;
      rights[r] = e;
      l += left;
      r += !left;
    }
    std::copy(rights, rights + r, to + left_count);
  }

  size_t n_;
  const std::vector<double>& weight_;
  std::vector<Grad> grad_;  // per row, for the current tree
  std::vector<uint8_t> goes_left_;
  std::vector<Entry> scratch_;
  std::vector<Cut> cuts_;  // BestSplitAlong's boundaries
  // The feature of each block: 0 first, then every other feature that
  // takes more than one value and whose order no earlier block has.
  std::vector<int> features_;
  size_t first_searched_ = 0;  // 1 when feature 0 is constant
  // Per block: the feature's distinct values, ascending (indexed by rank).
  std::vector<std::vector<double>> values_;
  std::vector<Entry> sorted_;  // the whole dataset's orders, read-only
  std::vector<Entry> work_;    // the current tree's partitioned orders
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

void GbtModel::Fit(const std::vector<std::vector<double>>& x,
                   const std::vector<double>& y,
                   const std::vector<double>& weights) {
  ALCOP_CHECK(!x.empty()) << "cannot fit GBT on empty data";
  ALCOP_CHECK_EQ(x.size(), y.size());
  for (const auto& row : x) {
    ALCOP_CHECK_EQ(row.size(), x[0].size()) << "ragged feature rows";
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
    for (size_t i = 0; i < y.size(); ++i) {
      prediction[i] += kLearningRate *
                       TreeValue(impl_->nodes.data(), root, x[i].data());
    }
  }
  impl_->fitted = true;
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
