// CART decision trees: a regressor (variance-reduction splits) and a
// classifier (Gini impurity). DT classification is the paper's pick for
// the LS performance model (Fig 6). Both trees share the same binary
// axis-aligned split machinery.
#pragma once

#include <cstdint>
#include <limits>

#include "ml/model.h"

namespace sturgeon::ml {

struct TreeParams {
  int max_depth = 12;
  int min_samples_split = 4;
  int min_samples_leaf = 2;
  /// Features examined per split; 0 = all (set by random forest).
  int max_features = 0;
  /// Seed for feature subsampling when max_features > 0.
  std::uint64_t seed = 1;
};

namespace detail {
/// Flat-array binary tree; leaves carry a prediction value.
struct TreeNode {
  int feature = -1;                 // -1 marks a leaf
  double threshold = 0.0;           // go left if x[feature] <= threshold
  double value = 0.0;               // leaf payload (mean target / majority)
  int left = -1, right = -1;        // child indices
};

class CartTree {
 public:
  /// `classification` switches impurity from variance to Gini and leaf
  /// payload from mean to majority label.
  void fit(const std::vector<FeatureRow>& x, const std::vector<double>& y,
           const TreeParams& params, bool classification);
  /// Throws std::invalid_argument unless `row` has the arity of the rows
  /// the tree was fitted on, whichever features the traversal visits.
  double predict(const FeatureRow& row) const;
  bool fitted() const { return !nodes_.empty(); }
  std::size_t node_count() const { return nodes_.size(); }
  int depth() const;

 private:
  int build(const std::vector<FeatureRow>& x, const std::vector<double>& y,
            std::vector<std::size_t>& idx, std::size_t lo, std::size_t hi,
            int depth);

  std::vector<TreeNode> nodes_;
  std::size_t arity_ = 0;
  TreeParams params_;
  bool classification_ = false;
  std::uint64_t rng_state_ = 1;
};
}  // namespace detail

class DecisionTreeRegressor : public Regressor {
 public:
  explicit DecisionTreeRegressor(TreeParams params = {}) : params_(params) {}

  void fit(const DataSet& data) override;
  double predict(const FeatureRow& row) const override;
  std::string name() const override { return "DecisionTreeRegressor"; }

  const detail::CartTree& tree() const { return tree_; }

 private:
  TreeParams params_;
  detail::CartTree tree_;
};

class DecisionTreeClassifier : public Classifier {
 public:
  explicit DecisionTreeClassifier(TreeParams params = {}) : params_(params) {}

  void fit(const std::vector<FeatureRow>& x,
           const std::vector<int>& labels) override;
  int predict(const FeatureRow& row) const override;
  std::string name() const override { return "DecisionTreeClassifier"; }

  const detail::CartTree& tree() const { return tree_; }

 private:
  TreeParams params_;
  detail::CartTree tree_;
};

}  // namespace sturgeon::ml
