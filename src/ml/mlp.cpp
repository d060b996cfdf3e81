#include "ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/check.h"
#include "util/rng.h"

namespace sturgeon::ml {
namespace detail {

void MlpNet::init(std::size_t input_dim, const std::vector<int>& hidden,
                  std::uint64_t seed) {
  weights_.clear();
  biases_.clear();
  in_dims_.clear();
  out_dims_.clear();
  max_hidden_width_ = 0;
  Rng rng(seed);
  std::size_t prev = input_dim;
  std::vector<std::size_t> dims;
  for (int h : hidden) {
    if (h < 1) throw std::invalid_argument("MlpNet: hidden width < 1");
    dims.push_back(static_cast<std::size_t>(h));
    max_hidden_width_ =
        std::max(max_hidden_width_, static_cast<std::size_t>(h));
  }
  dims.push_back(1);  // scalar output
  for (std::size_t out : dims) {
    in_dims_.push_back(prev);
    out_dims_.push_back(out);
    // Xavier/Glorot uniform initialization.
    const double bound =
        std::sqrt(6.0 / static_cast<double>(prev + out));
    std::vector<double> w(prev * out);
    for (auto& v : w) v = rng.uniform(-bound, bound);
    weights_.push_back(std::move(w));
    biases_.emplace_back(out, 0.0);
    prev = out;
  }
  const auto zeros_like = [this] {
    std::vector<std::vector<double>> z;
    for (const auto& w : weights_) z.emplace_back(w.size(), 0.0);
    return z;
  };
  const auto zeros_like_b = [this] {
    std::vector<std::vector<double>> z;
    for (const auto& b : biases_) z.emplace_back(b.size(), 0.0);
    return z;
  };
  gw_ = zeros_like();
  mw_ = zeros_like();
  vw_ = zeros_like();
  gb_ = zeros_like_b();
  mb_ = zeros_like_b();
  vb_ = zeros_like_b();
}

double MlpNet::forward(const FeatureRow& row,
                       std::vector<std::vector<double>>& acts) const {
  if (!initialized()) throw std::logic_error("MlpNet: not initialized");
  if (row.size() != in_dims_[0]) {
    throw std::invalid_argument("MlpNet::forward: arity mismatch");
  }
  acts.assign(weights_.size(), {});
  const double* input = row.data();
  std::size_t in_dim = row.size();
  double out_preact = 0.0;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    const std::size_t out_dim = out_dims_[l];
    acts[l].assign(out_dim, 0.0);
    const bool last = l + 1 == weights_.size();
    for (std::size_t j = 0; j < out_dim; ++j) {
      double z = biases_[l][j];
      const double* wrow = &weights_[l][j * in_dim];
      for (std::size_t i = 0; i < in_dim; ++i) z += wrow[i] * input[i];
      acts[l][j] = last ? z : std::tanh(z);
      if (last) out_preact = z;
    }
    input = acts[l].data();
    in_dim = out_dim;
  }
  return out_preact;
}

double MlpNet::infer(const double* row) const {
  if (!initialized()) throw std::logic_error("MlpNet: not initialized");
  // Two ping-pong activation buffers, each as wide as the widest layer.
  thread_local std::vector<double> scratch;
  if (scratch.size() < 2 * max_hidden_width_) {
    scratch.resize(2 * max_hidden_width_);
  }
  const double* input = row;
  std::size_t in_dim = in_dims_[0];
  const std::size_t out_layer = weights_.size() - 1;
  for (std::size_t l = 0; l < out_layer; ++l) {
    double* act = scratch.data() + (l % 2) * max_hidden_width_;
    for (std::size_t j = 0; j < out_dims_[l]; ++j) {
      double z = biases_[l][j];
      const double* wrow = &weights_[l][j * in_dim];
      for (std::size_t i = 0; i < in_dim; ++i) z += wrow[i] * input[i];
      act[j] = std::tanh(z);
    }
    input = act;
    in_dim = out_dims_[l];
  }
  // Scalar, linear output layer (the wrapper applies its activation).
  double z = biases_[out_layer][0];
  const double* wrow = weights_[out_layer].data();
  for (std::size_t i = 0; i < in_dim; ++i) z += wrow[i] * input[i];
  return z;
}

Interval MlpNet::bounds(const double* lo, const double* hi) const {
  if (!initialized()) throw std::logic_error("MlpNet: not initialized");
  // Per layer, a lower and an upper activation buffer, ping-ponged.
  const std::size_t w = max_hidden_width_;
  thread_local std::vector<double> scratch;
  if (scratch.size() < 4 * w) scratch.resize(4 * w);
  const double* in_lo = lo;
  const double* in_hi = hi;
  std::size_t in_dim = in_dims_[0];
  const auto neuron = [&](std::size_t l, std::size_t j) {
    Interval z{biases_[l][j], biases_[l][j]};
    const double* wrow = &weights_[l][j * in_dim];
    for (std::size_t i = 0; i < in_dim; ++i) {
      if (wrow[i] >= 0.0) {
        z.lo += wrow[i] * in_lo[i];
        z.hi += wrow[i] * in_hi[i];
      } else {
        z.lo += wrow[i] * in_hi[i];
        z.hi += wrow[i] * in_lo[i];
      }
    }
    return z;
  };
  const std::size_t out_layer = weights_.size() - 1;
  for (std::size_t l = 0; l < out_layer; ++l) {
    double* act_lo = scratch.data() + (l % 2) * 2 * w;
    double* act_hi = act_lo + w;
    for (std::size_t j = 0; j < out_dims_[l]; ++j) {
      const Interval z = neuron(l, j);
      act_lo[j] = std::tanh(z.lo);
      act_hi[j] = std::tanh(z.hi);
    }
    in_lo = act_lo;
    in_hi = act_hi;
    in_dim = out_dims_[l];
  }
  return neuron(out_layer, 0);
}

void MlpNet::backward(const FeatureRow& row,
                      const std::vector<std::vector<double>>& acts,
                      double dloss_dout) {
  const std::size_t layers = weights_.size();
  // delta for the output layer (linear activation).
  std::vector<double> delta{dloss_dout};
  for (std::size_t l = layers; l-- > 0;) {
    const std::size_t in_dim = in_dims_[l];
    const std::size_t out_dim = out_dims_[l];
    const double* input = l == 0 ? row.data() : acts[l - 1].data();
    for (std::size_t j = 0; j < out_dim; ++j) {
      const double dj = delta[j];
      gb_[l][j] += dj;
      double* grow = &gw_[l][j * in_dim];
      for (std::size_t i = 0; i < in_dim; ++i) grow[i] += dj * input[i];
    }
    if (l == 0) break;
    // Propagate delta to the previous (tanh) layer.
    std::vector<double> prev_delta(in_dim, 0.0);
    for (std::size_t j = 0; j < out_dim; ++j) {
      const double dj = delta[j];
      const double* wrow = &weights_[l][j * in_dim];
      for (std::size_t i = 0; i < in_dim; ++i) prev_delta[i] += dj * wrow[i];
    }
    for (std::size_t i = 0; i < in_dim; ++i) {
      const double a = acts[l - 1][i];
      prev_delta[i] *= 1.0 - a * a;  // tanh'
    }
    delta = std::move(prev_delta);
  }
}

void MlpNet::apply_adam(double lr, double l2, std::size_t batch, int step) {
  if (batch == 0) return;
  constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;
  const double inv_batch = 1.0 / static_cast<double>(batch);
  const double bc1 = 1.0 - std::pow(kBeta1, step);
  const double bc2 = 1.0 - std::pow(kBeta2, step);
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    for (std::size_t k = 0; k < weights_[l].size(); ++k) {
      const double g = gw_[l][k] * inv_batch + l2 * weights_[l][k];
      mw_[l][k] = kBeta1 * mw_[l][k] + (1.0 - kBeta1) * g;
      vw_[l][k] = kBeta2 * vw_[l][k] + (1.0 - kBeta2) * g * g;
      weights_[l][k] -=
          lr * (mw_[l][k] / bc1) / (std::sqrt(vw_[l][k] / bc2) + kEps);
      gw_[l][k] = 0.0;
    }
    for (std::size_t k = 0; k < biases_[l].size(); ++k) {
      const double g = gb_[l][k] * inv_batch;
      mb_[l][k] = kBeta1 * mb_[l][k] + (1.0 - kBeta1) * g;
      vb_[l][k] = kBeta2 * vb_[l][k] + (1.0 - kBeta2) * g * g;
      biases_[l][k] -=
          lr * (mb_[l][k] / bc1) / (std::sqrt(vb_[l][k] / bc2) + kEps);
      gb_[l][k] = 0.0;
    }
  }
}

}  // namespace detail

namespace {
double sigmoid(double z) {
  if (z >= 0) return 1.0 / (1.0 + std::exp(-z));
  const double e = std::exp(z);
  return e / (1.0 + e);
}
}  // namespace

MlpRegressor::MlpRegressor(MlpParams params) : params_(std::move(params)) {
  if (params_.epochs < 1 || params_.batch_size < 1 ||
      params_.learning_rate <= 0.0) {
    throw std::invalid_argument("MlpRegressor: bad hyperparameters");
  }
}

void MlpRegressor::fit(const DataSet& data) {
  data.validate();
  if (data.empty()) throw std::invalid_argument("MlpRegressor: empty fit");
  scaler_.fit(data.x);
  const auto xs = scaler_.transform(data.x);
  const std::size_t n = xs.size();

  y_mean_ = std::accumulate(data.y.begin(), data.y.end(), 0.0) /
            static_cast<double>(n);
  double var = 0.0;
  for (double yv : data.y) var += (yv - y_mean_) * (yv - y_mean_);
  y_scale_ = std::sqrt(var / static_cast<double>(n));
  if (y_scale_ < 1e-12) y_scale_ = 1.0;

  net_.init(xs[0].size(), params_.hidden, params_.seed);
  Rng rng(params_.seed ^ 0xabcdULL);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::vector<double>> acts;
  int step = 0;
  for (int epoch = 0; epoch < params_.epochs; ++epoch) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    for (std::size_t start = 0; start < n;
         start += static_cast<std::size_t>(params_.batch_size)) {
      const std::size_t end =
          std::min(n, start + static_cast<std::size_t>(params_.batch_size));
      for (std::size_t bi = start; bi < end; ++bi) {
        const std::size_t i = order[bi];
        const double pred = net_.forward(xs[i], acts);
        const double target = (data.y[i] - y_mean_) / y_scale_;
        net_.backward(xs[i], acts, pred - target);  // d(0.5 e^2)/dz
      }
      net_.apply_adam(params_.learning_rate, params_.l2, end - start, ++step);
    }
  }
}

double MlpRegressor::predict(const FeatureRow& row) const {
  if (!scaler_.fitted()) throw std::logic_error("MlpRegressor: not fitted");
  const double v =
      net_.infer(scaled_row(scaler_, row).data()) * y_scale_ + y_mean_;
  STURGEON_DCHECK(std::isfinite(v), "MlpRegressor: non-finite prediction");
  return v;
}

MlpClassifier::MlpClassifier(MlpParams params) : params_(std::move(params)) {
  if (params_.epochs < 1 || params_.batch_size < 1 ||
      params_.learning_rate <= 0.0) {
    throw std::invalid_argument("MlpClassifier: bad hyperparameters");
  }
}

void MlpClassifier::fit(const std::vector<FeatureRow>& x,
                        const std::vector<int>& labels) {
  if (x.empty() || x.size() != labels.size()) {
    throw std::invalid_argument("MlpClassifier::fit: bad shapes");
  }
  scaler_.fit(x);
  const auto xs = scaler_.transform(x);
  const std::size_t n = xs.size();
  net_.init(xs[0].size(), params_.hidden, params_.seed);
  Rng rng(params_.seed ^ 0xdcbaULL);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::vector<double>> acts;
  int step = 0;
  for (int epoch = 0; epoch < params_.epochs; ++epoch) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    for (std::size_t start = 0; start < n;
         start += static_cast<std::size_t>(params_.batch_size)) {
      const std::size_t end =
          std::min(n, start + static_cast<std::size_t>(params_.batch_size));
      for (std::size_t bi = start; bi < end; ++bi) {
        const std::size_t i = order[bi];
        const double z = net_.forward(xs[i], acts);
        // Cross-entropy on sigmoid output: dL/dz = p - y.
        net_.backward(xs[i], acts,
                      sigmoid(z) - static_cast<double>(labels[i]));
      }
      net_.apply_adam(params_.learning_rate, params_.l2, end - start, ++step);
    }
  }
}

double MlpClassifier::logit(const FeatureRow& row) const {
  if (!scaler_.fitted()) throw std::logic_error("MlpClassifier: not fitted");
  return net_.infer(scaled_row(scaler_, row).data());
}

double MlpClassifier::predict_proba(const FeatureRow& row) const {
  return sigmoid(logit(row));
}

Interval MlpClassifier::logit_bounds(const FeatureRow& lo,
                                     const FeatureRow& hi) const {
  const ScaledBox box = scaled_box(scaler_, lo, hi);
  return net_.bounds(box.lo.data(), box.hi.data());
}

std::optional<int> MlpClassifier::box_label(const FeatureRow& lo,
                                            const FeatureRow& hi) const {
  return logit_box_label(logit_bounds(lo, hi));
}

int MlpClassifier::predict(const FeatureRow& row) const {
  return predict_proba(row) >= 0.5 ? 1 : 0;
}

}  // namespace sturgeon::ml
