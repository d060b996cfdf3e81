// Multi-layer perceptron with tanh hidden units trained by Adam on
// mini-batches; regressor (linear output, squared loss) and classifier
// (sigmoid output, cross-entropy). MLP regression is among the paper's
// best families for BE performance models (Fig 6).
#pragma once

#include <cstdint>

#include "ml/model.h"

namespace sturgeon::ml {

struct MlpParams {
  std::vector<int> hidden = {16, 16};
  double learning_rate = 5e-3;
  int epochs = 300;
  int batch_size = 32;
  double l2 = 1e-5;
  std::uint64_t seed = 23;
};

namespace detail {
/// Fully-connected network used by both public wrappers. All hidden
/// activations are tanh; the output activation is the wrapper's concern.
class MlpNet {
 public:
  void init(std::size_t input_dim, const std::vector<int>& hidden,
            std::uint64_t seed);

  /// Forward pass; returns the single pre-activation output, filling the
  /// per-layer activation cache used by backward().
  double forward(const FeatureRow& row,
                 std::vector<std::vector<double>>& acts) const;

  /// Inference-only forward pass over one already scaled row of
  /// input_dim values: the same arithmetic in the same order as forward()
  /// (so bit-identical to it), through per-thread scratch that grows to
  /// the widest layer once and is reused, so steady-state calls allocate
  /// nothing. Safe to call concurrently.
  double infer(const double* row) const;

  /// Interval bound propagation: bounds on infer() over every already
  /// scaled row in the box lo[i] <= x[i] <= hi[i]. Each neuron's bounds
  /// take, term by term, the end of the input interval that bounds its
  /// product, summed in infer()'s order, and tanh is monotone; so a
  /// point box [x, x] returns infer(x) as both bounds. Per-thread
  /// scratch, as infer().
  Interval bounds(const double* lo, const double* hi) const;

  /// Accumulate gradients for one sample given dLoss/dOutput.
  void backward(const FeatureRow& row,
                const std::vector<std::vector<double>>& acts,
                double dloss_dout);

  /// Adam step over accumulated gradients (averaged over `batch` samples),
  /// then clears the accumulators.
  void apply_adam(double lr, double l2, std::size_t batch, int step);

  bool initialized() const { return !weights_.empty(); }

 private:
  // weights_[l][j*in+ i]: layer l maps in_dims_[l] -> out_dims_[l].
  std::vector<std::vector<double>> weights_;
  std::vector<std::vector<double>> biases_;
  std::vector<std::size_t> in_dims_, out_dims_;
  std::size_t max_hidden_width_ = 0;
  // Gradient accumulators and Adam moments (same shapes as weights/biases).
  std::vector<std::vector<double>> gw_, gb_, mw_, vw_, mb_, vb_;
};
}  // namespace detail

class MlpRegressor : public Regressor {
 public:
  explicit MlpRegressor(MlpParams params = {});

  void fit(const DataSet& data) override;
  double predict(const FeatureRow& row) const override;
  std::string name() const override { return "MlpRegressor"; }

 private:
  MlpParams params_;
  StandardScaler scaler_;
  detail::MlpNet net_;
  double y_mean_ = 0.0, y_scale_ = 1.0;
};

class MlpClassifier : public Classifier {
 public:
  explicit MlpClassifier(MlpParams params = {});

  void fit(const std::vector<FeatureRow>& x,
           const std::vector<int>& labels) override;
  int predict(const FeatureRow& row) const override;
  std::string name() const override { return "MlpClassifier"; }

  double predict_proba(const FeatureRow& row) const;

  /// The output pre-activation z that predict() thresholds:
  /// predict(row) is sigmoid(z) >= 0.5.
  double logit(const FeatureRow& row) const;

  /// Bounds on logit() over the box lo[j] <= x[j] <= hi[j] (unscaled
  /// features). Standardization is monotone in each feature, so the box
  /// maps inside the box of its scaled corners.
  Interval logit_bounds(const FeatureRow& lo, const FeatureRow& hi) const;

  /// 1 when the logit's lower bound clears +kBoxMargin, 0 when its upper
  /// bound clears -kBoxMargin, otherwise nothing proven.
  std::optional<int> box_label(const FeatureRow& lo,
                               const FeatureRow& hi) const override;
  bool has_interval_pass() const override { return true; }

 private:
  MlpParams params_;
  StandardScaler scaler_;
  detail::MlpNet net_;
};

}  // namespace sturgeon::ml
