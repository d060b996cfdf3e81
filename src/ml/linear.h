// Closed-form and sparse linear models: ordinary least squares (with an
// optional ridge term for conditioning), and Lasso via cyclic coordinate
// descent. The paper uses Lasso for feature selection (Section V-A) and
// linear regression as one of the compared model families (Section V-C).
#pragma once

#include <vector>

#include "ml/model.h"

namespace sturgeon::ml {

/// OLS linear regression with intercept; `ridge` adds L2 regularization
/// (0 = plain OLS, tiny default keeps near-collinear designs solvable).
class LinearRegression : public Regressor {
 public:
  explicit LinearRegression(double ridge = 1e-8) : ridge_(ridge) {}

  void fit(const DataSet& data) override;
  double predict(const FeatureRow& row) const override;
  std::string name() const override { return "LinearRegression"; }

  const std::vector<double>& coefficients() const { return coef_; }
  double intercept() const { return intercept_; }

 private:
  double ridge_;
  std::vector<double> coef_;
  double intercept_ = 0.0;
};

/// Lasso (L1) regression via cyclic coordinate descent on standardized
/// features. Besides prediction it exposes the sparsity pattern, which
/// Sturgeon's trainer uses to select model input features.
class LassoRegression : public Regressor {
 public:
  explicit LassoRegression(double lambda = 0.1, int max_iter = 1000,
                           double tol = 1e-7);

  void fit(const DataSet& data) override;
  double predict(const FeatureRow& row) const override;
  std::string name() const override { return "LassoRegression"; }

  /// Coefficients in the standardized feature space.
  const std::vector<double>& coefficients() const { return coef_; }

  /// Indices of features with non-zero coefficients, sorted by
  /// decreasing absolute coefficient (most explanatory first).
  std::vector<std::size_t> selected_features() const;

 private:
  double lambda_;
  int max_iter_;
  double tol_;
  StandardScaler scaler_;
  std::vector<double> coef_;
  double intercept_ = 0.0;
};

}  // namespace sturgeon::ml
