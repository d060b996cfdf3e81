// Abstract model interfaces. The predictor layer (src/core) talks only to
// these, so any model family can back a performance or power model. Every
// family answers through its scalar predict() alone.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ml/dataset.h"

namespace sturgeon::ml {

/// Real-valued prediction model (power models, BE performance models).
class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Fit on the dataset; throws std::invalid_argument on empty/ragged data.
  virtual void fit(const DataSet& data) = 0;

  /// Predict a single row; models must be fitted first.
  virtual double predict(const FeatureRow& row) const = 0;

  virtual std::string name() const = 0;

  /// One predict() per row, in order.
  std::vector<double> predict_batch(const std::vector<FeatureRow>& x) const;
};

/// Closed interval [lo, hi] of one real value.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};

/// Integer-label classifier (LS QoS met / violated, paper Section V-C).
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// `labels` parallel to data.x; data.y is ignored by classifiers.
  virtual void fit(const std::vector<FeatureRow>& x,
                   const std::vector<int>& labels) = 0;

  virtual int predict(const FeatureRow& row) const = 0;

  virtual std::string name() const = 0;

  /// One predict() per row, in order.
  std::vector<int> predict_batch(const std::vector<FeatureRow>& x) const;

  /// Interval pass: the label predict() provably returns for every row x
  /// with lo[j] <= x[j] <= hi[j] in each feature, or std::nullopt when
  /// nothing is proven. The default proves nothing; a family that
  /// overrides it also overrides has_interval_pass().
  virtual std::optional<int> box_label(const FeatureRow& /*lo*/,
                                       const FeatureRow& /*hi*/) const {
    return std::nullopt;
  }
  virtual bool has_interval_pass() const { return false; }

  /// Margin a logit's bounds must clear before a family that predicts
  /// sigmoid(z) >= 0.5 claims a label. It dwarfs the rounding error of
  /// a forward pass (an MLP's std::tanh included), and keeps the answer
  /// away from z ~ 0, where sigmoid(z) rounds to exactly 0.5.
  static constexpr double kBoxMargin = 1e-9;

 protected:
  /// The label sigmoid(z) >= 0.5 gives every z in `z`: 1 when z.lo clears
  /// +kBoxMargin, 0 when z.hi clears -kBoxMargin, otherwise nothing.
  static std::optional<int> logit_box_label(const Interval& z) {
    if (z.lo > kBoxMargin) return 1;
    if (z.hi < -kBoxMargin) return 0;
    return std::nullopt;
  }
};

using RegressorPtr = std::unique_ptr<Regressor>;
using ClassifierPtr = std::unique_ptr<Classifier>;

}  // namespace sturgeon::ml
