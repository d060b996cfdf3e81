#include "ml/logistic.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sturgeon::ml {

namespace {
double sigmoid(double z) {
  if (z >= 0) {
    return 1.0 / (1.0 + std::exp(-z));
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}
}  // namespace

LogisticRegression::LogisticRegression(double learning_rate, int max_iter,
                                       double l2)
    : lr_(learning_rate), max_iter_(max_iter), l2_(l2) {
  if (learning_rate <= 0.0 || max_iter < 1 || l2 < 0.0) {
    throw std::invalid_argument("LogisticRegression: bad hyperparameters");
  }
}

void LogisticRegression::fit(const std::vector<FeatureRow>& x,
                             const std::vector<int>& labels) {
  if (x.empty() || x.size() != labels.size()) {
    throw std::invalid_argument("LogisticRegression::fit: bad shapes");
  }
  for (int l : labels) {
    if (l != 0 && l != 1) {
      throw std::invalid_argument("LogisticRegression: labels must be 0/1");
    }
  }
  scaler_.fit(x);
  const auto xs = scaler_.transform(x);
  const std::size_t n = xs.size();
  const std::size_t d = xs[0].size();
  coef_.assign(d, 0.0);
  intercept_ = 0.0;

  std::vector<double> grad(d);
  for (int it = 0; it < max_iter_; ++it) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double grad_b = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double z = intercept_;
      for (std::size_t j = 0; j < d; ++j) z += coef_[j] * xs[i][j];
      const double err = sigmoid(z) - static_cast<double>(labels[i]);
      for (std::size_t j = 0; j < d; ++j) grad[j] += err * xs[i][j];
      grad_b += err;
    }
    const double inv_n = 1.0 / static_cast<double>(n);
    double step = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      const double g = grad[j] * inv_n + l2_ * coef_[j];
      coef_[j] -= lr_ * g;
      step = std::max(step, std::abs(g));
    }
    intercept_ -= lr_ * grad_b * inv_n;
    if (step < 1e-7) break;
  }
}

double LogisticRegression::logit(const FeatureRow& row) const {
  if (!scaler_.fitted()) throw std::logic_error("Logistic: not fitted");
  const FeatureRow& xs = scaled_row(scaler_, row);
  double z = intercept_;
  for (std::size_t j = 0; j < xs.size(); ++j) z += coef_[j] * xs[j];
  return z;
}

double LogisticRegression::predict_proba(const FeatureRow& row) const {
  return sigmoid(logit(row));
}

Interval LogisticRegression::logit_bounds(const FeatureRow& lo,
                                          const FeatureRow& hi) const {
  const ScaledBox box = scaled_box(scaler_, lo, hi);
  Interval z{intercept_, intercept_};
  for (std::size_t j = 0; j < coef_.size(); ++j) {
    const double a = coef_[j] * box.lo[j];
    const double b = coef_[j] * box.hi[j];
    z.lo += std::min(a, b);
    z.hi += std::max(a, b);
  }
  return z;
}

std::optional<int> LogisticRegression::box_label(const FeatureRow& lo,
                                                 const FeatureRow& hi) const {
  return logit_box_label(logit_bounds(lo, hi));
}

int LogisticRegression::predict(const FeatureRow& row) const {
  return predict_proba(row) >= 0.5 ? 1 : 0;
}

}  // namespace sturgeon::ml
