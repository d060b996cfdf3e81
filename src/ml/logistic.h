// Binary logistic regression trained by full-batch gradient descent with
// L2 regularization on standardized features. One of the classification
// families compared for the LS performance model (paper Fig 6, "LR").
// Its logit is affine in the standardized features, so it has an exact
// interval pass (box_label), and a deployed LR QoS classifier gets a
// certified QoS table (core/qos_table.h).
#pragma once

#include "ml/model.h"

namespace sturgeon::ml {

class LogisticRegression : public Classifier {
 public:
  explicit LogisticRegression(double learning_rate = 0.5, int max_iter = 500,
                              double l2 = 1e-4);

  void fit(const std::vector<FeatureRow>& x,
           const std::vector<int>& labels) override;
  int predict(const FeatureRow& row) const override;
  std::string name() const override { return "LogisticRegression"; }

  /// P(label == 1 | row).
  double predict_proba(const FeatureRow& row) const;

  /// The logit z that predict_proba() passes through the sigmoid:
  /// intercept + sum_j coef_j * scaled_j, summed in feature order.
  double logit(const FeatureRow& row) const;

  /// Bounds on logit() over the box lo[j] <= x[j] <= hi[j] (unscaled
  /// features). Standardization, each rounded product and each rounded
  /// sum are monotone, so taking the smaller (larger) of each term at the
  /// box's two scaled corners, summed in logit()'s order, bounds logit()'s
  /// own floating-point value; a point box [x, x] returns logit(x).
  Interval logit_bounds(const FeatureRow& lo, const FeatureRow& hi) const;

  /// 1 when the logit's lower bound clears +kBoxMargin, 0 when its upper
  /// bound clears -kBoxMargin, otherwise nothing proven.
  std::optional<int> box_label(const FeatureRow& lo,
                               const FeatureRow& hi) const override;
  bool has_interval_pass() const override { return true; }

 private:
  double lr_;
  int max_iter_;
  double l2_;
  StandardScaler scaler_;
  std::vector<double> coef_;
  double intercept_ = 0.0;
};

}  // namespace sturgeon::ml
