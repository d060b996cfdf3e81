// Support-vector models ("SV" in the paper's Figs 6-7): a linear soft-
// margin SVM classifier trained with the Pegasos stochastic sub-gradient
// method, and a linear epsilon-insensitive support-vector regressor
// trained the same way. Features are standardized internally.
#pragma once

#include <cstdint>

#include "ml/model.h"

namespace sturgeon::ml {

class SvmClassifier : public Classifier {
 public:
  /// `lambda` is the Pegasos regularization strength; `epochs` full
  /// passes over the (shuffled) training set.
  explicit SvmClassifier(double lambda = 1e-3, int epochs = 60,
                         std::uint64_t seed = 17);

  void fit(const std::vector<FeatureRow>& x,
           const std::vector<int>& labels) override;
  int predict(const FeatureRow& row) const override;
  std::string name() const override { return "SvmClassifier"; }

  /// Signed margin w.x + b.
  double decision_function(const FeatureRow& row) const;

 private:
  double lambda_;
  int epochs_;
  std::uint64_t seed_;
  StandardScaler scaler_;
  std::vector<double> w_;
  double b_ = 0.0;
};

class SvRegressor : public Regressor {
 public:
  explicit SvRegressor(double c = 10.0, double epsilon = 0.05,
                       int epochs = 120, std::uint64_t seed = 17);

  void fit(const DataSet& data) override;
  double predict(const FeatureRow& row) const override;
  std::string name() const override { return "SvRegressor"; }

 private:
  double c_;
  double epsilon_;
  int epochs_;
  std::uint64_t seed_;
  StandardScaler scaler_;
  std::vector<double> w_;
  double b_ = 0.0;
  double y_scale_ = 1.0;
  double y_mean_ = 0.0;
};

}  // namespace sturgeon::ml
