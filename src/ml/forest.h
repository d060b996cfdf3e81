// Random forests by bootstrap aggregation of CART trees. Not in the
// paper's compared set; included as an extension the model repository can
// select when it beats the paper's families on validation data.
#pragma once

#include "ml/tree.h"

namespace sturgeon::ml {

struct ForestParams {
  int num_trees = 25;
  TreeParams tree;        ///< per-tree parameters (max_features honored)
  std::uint64_t seed = 7;
};

class RandomForestRegressor : public Regressor {
 public:
  explicit RandomForestRegressor(ForestParams params = {});

  void fit(const DataSet& data) override;
  double predict(const FeatureRow& row) const override;
  std::string name() const override { return "RandomForestRegressor"; }

  std::size_t num_trees() const { return trees_.size(); }

 private:
  ForestParams params_;
  std::vector<detail::CartTree> trees_;
};

class RandomForestClassifier : public Classifier {
 public:
  explicit RandomForestClassifier(ForestParams params = {});

  void fit(const std::vector<FeatureRow>& x,
           const std::vector<int>& labels) override;
  int predict(const FeatureRow& row) const override;
  std::string name() const override { return "RandomForestClassifier"; }

  std::size_t num_trees() const { return trees_.size(); }

 private:
  ForestParams params_;
  std::vector<detail::CartTree> trees_;
};

}  // namespace sturgeon::ml
