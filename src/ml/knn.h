// K-nearest-neighbor regression and classification over standardized
// features (brute force; training sets here are a few thousand rows).
// The paper finds KNN regression the best fit for the power models and
// competitive for BE performance (Figs 6 & 7).
#pragma once

#include "ml/model.h"

namespace sturgeon::ml {

namespace detail {
/// Indices of the k nearest rows to `query` under squared Euclidean
/// distance; exposed for testing.
std::vector<std::size_t> knn_indices(const std::vector<FeatureRow>& rows,
                                     const FeatureRow& query, int k);
}  // namespace detail

class KnnRegressor : public Regressor {
 public:
  /// `weighted` uses inverse-distance weighting of neighbor targets.
  explicit KnnRegressor(int k = 5, bool weighted = true);

  void fit(const DataSet& data) override;
  double predict(const FeatureRow& row) const override;
  std::string name() const override { return "KnnRegressor"; }

 private:
  int k_;
  bool weighted_;
  StandardScaler scaler_;
  std::vector<FeatureRow> x_;
  std::vector<double> y_;
};

class KnnClassifier : public Classifier {
 public:
  explicit KnnClassifier(int k = 5);

  void fit(const std::vector<FeatureRow>& x,
           const std::vector<int>& labels) override;
  int predict(const FeatureRow& row) const override;
  std::string name() const override { return "KnnClassifier"; }

 private:
  int k_;
  StandardScaler scaler_;
  std::vector<FeatureRow> x_;
  std::vector<int> labels_;
};

}  // namespace sturgeon::ml
