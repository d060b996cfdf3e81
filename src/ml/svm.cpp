#include "ml/svm.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/rng.h"

namespace sturgeon::ml {

SvmClassifier::SvmClassifier(double lambda, int epochs, std::uint64_t seed)
    : lambda_(lambda), epochs_(epochs), seed_(seed) {
  if (lambda <= 0.0 || epochs < 1) {
    throw std::invalid_argument("SvmClassifier: bad hyperparameters");
  }
}

void SvmClassifier::fit(const std::vector<FeatureRow>& x,
                        const std::vector<int>& labels) {
  if (x.empty() || x.size() != labels.size()) {
    throw std::invalid_argument("SvmClassifier::fit: bad shapes");
  }
  scaler_.fit(x);
  const auto xs = scaler_.transform(x);
  const std::size_t n = xs.size();
  const std::size_t d = xs[0].size();
  // Map labels {0,1} -> {-1,+1}.
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (labels[i] != 0 && labels[i] != 1) {
      throw std::invalid_argument("SvmClassifier: labels must be 0/1");
    }
    ys[i] = labels[i] == 1 ? 1.0 : -1.0;
  }
  w_.assign(d, 0.0);
  b_ = 0.0;
  Rng rng(seed_);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::size_t t = 0;
  for (int epoch = 0; epoch < epochs_; ++epoch) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    for (std::size_t i : order) {
      ++t;
      const double eta = 1.0 / (lambda_ * static_cast<double>(t));
      double margin = b_;
      for (std::size_t j = 0; j < d; ++j) margin += w_[j] * xs[i][j];
      margin *= ys[i];
      const double decay = 1.0 - eta * lambda_;
      for (auto& wj : w_) wj *= decay;
      if (margin < 1.0) {
        for (std::size_t j = 0; j < d; ++j) w_[j] += eta * ys[i] * xs[i][j];
        b_ += eta * ys[i];
      }
    }
  }
}

double SvmClassifier::decision_function(const FeatureRow& row) const {
  if (!scaler_.fitted()) throw std::logic_error("SvmClassifier: not fitted");
  const FeatureRow& xs = scaled_row(scaler_, row);
  double z = b_;
  for (std::size_t j = 0; j < xs.size(); ++j) z += w_[j] * xs[j];
  return z;
}

int SvmClassifier::predict(const FeatureRow& row) const {
  return decision_function(row) >= 0.0 ? 1 : 0;
}

SvRegressor::SvRegressor(double c, double epsilon, int epochs,
                         std::uint64_t seed)
    : c_(c), epsilon_(epsilon), epochs_(epochs), seed_(seed) {
  if (c <= 0.0 || epsilon < 0.0 || epochs < 1) {
    throw std::invalid_argument("SvRegressor: bad hyperparameters");
  }
}

void SvRegressor::fit(const DataSet& data) {
  data.validate();
  if (data.empty()) throw std::invalid_argument("SvRegressor: empty fit");
  scaler_.fit(data.x);
  const auto xs = scaler_.transform(data.x);
  const std::size_t n = xs.size();
  const std::size_t d = xs[0].size();

  // Normalize the target so epsilon is in units of target stddev.
  y_mean_ = std::accumulate(data.y.begin(), data.y.end(), 0.0) /
            static_cast<double>(n);
  double var = 0.0;
  for (double yv : data.y) var += (yv - y_mean_) * (yv - y_mean_);
  y_scale_ = std::sqrt(var / static_cast<double>(n));
  if (y_scale_ < 1e-12) y_scale_ = 1.0;
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) ys[i] = (data.y[i] - y_mean_) / y_scale_;

  w_.assign(d, 0.0);
  b_ = 0.0;
  const double lambda = 1.0 / (c_ * static_cast<double>(n));
  Rng rng(seed_);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::size_t t = 0;
  for (int epoch = 0; epoch < epochs_; ++epoch) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    for (std::size_t i : order) {
      ++t;
      const double eta = 1.0 / (lambda * static_cast<double>(t));
      double pred = b_;
      for (std::size_t j = 0; j < d; ++j) pred += w_[j] * xs[i][j];
      const double err = pred - ys[i];
      const double decay = 1.0 - eta * lambda;
      for (auto& wj : w_) wj *= decay;
      if (err > epsilon_) {
        for (std::size_t j = 0; j < d; ++j) w_[j] -= eta * xs[i][j];
        b_ -= eta;
      } else if (err < -epsilon_) {
        for (std::size_t j = 0; j < d; ++j) w_[j] += eta * xs[i][j];
        b_ += eta;
      }
    }
  }
}

double SvRegressor::predict(const FeatureRow& row) const {
  if (!scaler_.fitted()) throw std::logic_error("SvRegressor: not fitted");
  const FeatureRow& xs = scaled_row(scaler_, row);
  double z = b_;
  for (std::size_t j = 0; j < xs.size(); ++j) z += w_[j] * xs[j];
  return z * y_scale_ + y_mean_;
}

}  // namespace sturgeon::ml
