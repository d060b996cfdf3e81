#include "ml/tree.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <stdexcept>

#include "util/rng.h"

namespace sturgeon::ml {
namespace detail {

namespace {

double leaf_value(const std::vector<double>& y,
                  const std::vector<std::size_t>& idx, std::size_t lo,
                  std::size_t hi, bool classification) {
  if (!classification) {
    double acc = 0.0;
    for (std::size_t i = lo; i < hi; ++i) acc += y[idx[i]];
    return acc / static_cast<double>(hi - lo);
  }
  std::map<int, int> votes;
  for (std::size_t i = lo; i < hi; ++i) {
    ++votes[static_cast<int>(std::lround(y[idx[i]]))];
  }
  int best = 0, best_count = -1;
  for (const auto& [label, count] : votes) {
    if (count > best_count) {
      best_count = count;
      best = label;
    }
  }
  return static_cast<double>(best);
}

/// Impurity * count for a label histogram (Gini) or value accumulators
/// (variance); lower is better.
struct SplitScan {
  // Regression accumulators.
  double sum = 0.0, sum_sq = 0.0;
  // Classification histogram (labels are small non-negative ints).
  std::map<int, int> hist;
  int count = 0;

  void add(double yv, bool classification) {
    ++count;
    if (classification) {
      ++hist[static_cast<int>(std::lround(yv))];
    } else {
      sum += yv;
      sum_sq += yv * yv;
    }
  }
  void remove(double yv, bool classification) {
    --count;
    if (classification) {
      --hist[static_cast<int>(std::lround(yv))];
    } else {
      sum -= yv;
      sum_sq -= yv * yv;
    }
  }
  /// Weighted impurity contribution (count * impurity).
  double weighted_impurity(bool classification) const {
    if (count == 0) return 0.0;
    const double n = static_cast<double>(count);
    if (classification) {
      double gini = 1.0;
      for (const auto& [label, c] : hist) {
        (void)label;
        const double p = static_cast<double>(c) / n;
        gini -= p * p;
      }
      return n * gini;
    }
    const double mean = sum / n;
    return sum_sq - n * mean * mean;  // n * variance
  }
};

}  // namespace

void CartTree::fit(const std::vector<FeatureRow>& x,
                   const std::vector<double>& y, const TreeParams& params,
                   bool classification) {
  if (x.empty() || x.size() != y.size()) {
    throw std::invalid_argument("CartTree::fit: bad shapes");
  }
  for (const FeatureRow& row : x) {
    if (row.size() != x[0].size()) {
      throw std::invalid_argument("CartTree::fit: ragged rows");
    }
  }
  nodes_.clear();
  arity_ = x[0].size();
  params_ = params;
  classification_ = classification;
  rng_state_ = params.seed ? params.seed : 1;
  std::vector<std::size_t> idx(x.size());
  std::iota(idx.begin(), idx.end(), 0);
  build(x, y, idx, 0, idx.size(), 0);
}

int CartTree::build(const std::vector<FeatureRow>& x,
                    const std::vector<double>& y,
                    std::vector<std::size_t>& idx, std::size_t lo,
                    std::size_t hi, int depth) {
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  const std::size_t n = hi - lo;

  const auto make_leaf = [&] {
    nodes_[static_cast<std::size_t>(node_id)].value =
        leaf_value(y, idx, lo, hi, classification_);
    return node_id;
  };

  if (depth >= params_.max_depth ||
      n < static_cast<std::size_t>(params_.min_samples_split)) {
    return make_leaf();
  }

  const std::size_t d = x[0].size();
  // Candidate features (optionally subsampled for forests).
  std::vector<std::size_t> features(d);
  std::iota(features.begin(), features.end(), 0);
  if (params_.max_features > 0 &&
      static_cast<std::size_t>(params_.max_features) < d) {
    for (std::size_t i = features.size(); i > 1; --i) {
      std::swap(features[i - 1], features[splitmix64(rng_state_) % i]);
    }
    features.resize(static_cast<std::size_t>(params_.max_features));
  }

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_score = std::numeric_limits<double>::infinity();

  std::vector<std::pair<double, double>> vals;  // (feature value, target)
  vals.reserve(n);
  for (std::size_t f : features) {
    vals.clear();
    for (std::size_t i = lo; i < hi; ++i) {
      vals.emplace_back(x[idx[i]][f], y[idx[i]]);
    }
    std::sort(vals.begin(), vals.end());
    if (vals.front().first == vals.back().first) continue;  // constant

    SplitScan left, right;
    for (const auto& [xv, yv] : vals) {
      (void)xv;
      right.add(yv, classification_);
    }
    const std::size_t min_leaf =
        static_cast<std::size_t>(params_.min_samples_leaf);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      left.add(vals[i].second, classification_);
      right.remove(vals[i].second, classification_);
      if (vals[i].first == vals[i + 1].first) continue;  // not a boundary
      if (i + 1 < min_leaf || n - i - 1 < min_leaf) continue;
      const double score = left.weighted_impurity(classification_) +
                           right.weighted_impurity(classification_);
      if (score < best_score) {
        best_score = score;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (vals[i].first + vals[i + 1].first);
      }
    }
  }

  if (best_feature < 0) return make_leaf();

  // Also require the split to actually improve on the parent impurity.
  SplitScan parent;
  for (std::size_t i = lo; i < hi; ++i) parent.add(y[idx[i]], classification_);
  if (best_score >= parent.weighted_impurity(classification_) - 1e-12) {
    return make_leaf();
  }

  const auto mid_it = std::partition(
      idx.begin() + static_cast<long>(lo), idx.begin() + static_cast<long>(hi),
      [&](std::size_t i) {
        return x[i][static_cast<std::size_t>(best_feature)] <= best_threshold;
      });
  const auto mid = static_cast<std::size_t>(mid_it - idx.begin());
  if (mid == lo || mid == hi) return make_leaf();  // degenerate partition

  nodes_[static_cast<std::size_t>(node_id)].feature = best_feature;
  nodes_[static_cast<std::size_t>(node_id)].threshold = best_threshold;
  const int left_id = build(x, y, idx, lo, mid, depth + 1);
  const int right_id = build(x, y, idx, mid, hi, depth + 1);
  nodes_[static_cast<std::size_t>(node_id)].left = left_id;
  nodes_[static_cast<std::size_t>(node_id)].right = right_id;
  return node_id;
}

double CartTree::predict(const FeatureRow& row) const {
  if (nodes_.empty()) throw std::logic_error("CartTree: not fitted");
  if (row.size() != arity_) {
    throw std::invalid_argument("CartTree::predict: arity mismatch");
  }
  int cur = 0;
  for (;;) {
    const TreeNode& node = nodes_[static_cast<std::size_t>(cur)];
    if (node.feature < 0) return node.value;
    cur = row[static_cast<std::size_t>(node.feature)] <= node.threshold
              ? node.left
              : node.right;
  }
}

int CartTree::depth() const {
  if (nodes_.empty()) return 0;
  // Iterative depth via explicit stack of (node, depth).
  int max_depth = 0;
  std::vector<std::pair<int, int>> stack{{0, 1}};
  while (!stack.empty()) {
    const auto [id, dep] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, dep);
    const TreeNode& node = nodes_[static_cast<std::size_t>(id)];
    if (node.feature >= 0) {
      stack.emplace_back(node.left, dep + 1);
      stack.emplace_back(node.right, dep + 1);
    }
  }
  return max_depth;
}

}  // namespace detail

void DecisionTreeRegressor::fit(const DataSet& data) {
  data.validate();
  if (data.empty()) throw std::invalid_argument("DTRegressor: empty fit");
  tree_.fit(data.x, data.y, params_, /*classification=*/false);
}

double DecisionTreeRegressor::predict(const FeatureRow& row) const {
  return tree_.predict(row);
}

void DecisionTreeClassifier::fit(const std::vector<FeatureRow>& x,
                                 const std::vector<int>& labels) {
  if (x.empty() || x.size() != labels.size()) {
    throw std::invalid_argument("DTClassifier::fit: bad shapes");
  }
  std::vector<double> y(labels.begin(), labels.end());
  tree_.fit(x, y, params_, /*classification=*/true);
}

int DecisionTreeClassifier::predict(const FeatureRow& row) const {
  return static_cast<int>(std::lround(tree_.predict(row)));
}

}  // namespace sturgeon::ml
