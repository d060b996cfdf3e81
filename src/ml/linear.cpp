#include "ml/linear.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "ml/linalg.h"

namespace sturgeon::ml {

namespace {
std::vector<std::vector<double>> with_bias(const std::vector<FeatureRow>& x) {
  std::vector<std::vector<double>> rows;
  rows.reserve(x.size());
  for (const auto& r : x) {
    std::vector<double> row;
    row.reserve(r.size() + 1);
    row.push_back(1.0);
    row.insert(row.end(), r.begin(), r.end());
    rows.push_back(std::move(row));
  }
  return rows;
}
}  // namespace

void LinearRegression::fit(const DataSet& data) {
  data.validate();
  if (data.empty()) throw std::invalid_argument("LinearRegression: empty fit");
  const auto rows = with_bias(data.x);
  auto m = normal_matrix(rows, ridge_);
  m[0][0] -= ridge_;  // do not regularize the intercept
  const auto rhs = normal_rhs(rows, data.y);
  const auto w = solve_linear_system(std::move(m), rhs);
  intercept_ = w[0];
  coef_.assign(w.begin() + 1, w.end());
}

double LinearRegression::predict(const FeatureRow& row) const {
  if (coef_.empty()) throw std::logic_error("LinearRegression: not fitted");
  if (row.size() != coef_.size()) {
    throw std::invalid_argument("LinearRegression: arity mismatch");
  }
  double acc = intercept_;
  for (std::size_t j = 0; j < row.size(); ++j) acc += coef_[j] * row[j];
  return acc;
}

LassoRegression::LassoRegression(double lambda, int max_iter, double tol)
    : lambda_(lambda), max_iter_(max_iter), tol_(tol) {
  if (lambda < 0.0) throw std::invalid_argument("Lasso: lambda < 0");
  if (max_iter < 1) throw std::invalid_argument("Lasso: max_iter < 1");
}

void LassoRegression::fit(const DataSet& data) {
  data.validate();
  if (data.empty()) throw std::invalid_argument("Lasso: empty fit");
  scaler_.fit(data.x);
  const auto xs = scaler_.transform(data.x);
  const std::size_t n = xs.size();
  const std::size_t d = xs[0].size();

  // Center the target; intercept is its mean in standardized space.
  intercept_ =
      std::accumulate(data.y.begin(), data.y.end(), 0.0) /
      static_cast<double>(n);
  std::vector<double> yc(n);
  for (std::size_t i = 0; i < n; ++i) yc[i] = data.y[i] - intercept_;

  coef_.assign(d, 0.0);
  std::vector<double> residual = yc;  // residual = y - X w (w starts at 0)

  // Column norms; standardized columns have norm ~ n, but compute exactly.
  std::vector<double> col_sq(d, 0.0);
  for (const auto& row : xs) {
    for (std::size_t j = 0; j < d; ++j) col_sq[j] += row[j] * row[j];
  }

  const double n_d = static_cast<double>(n);
  for (int it = 0; it < max_iter_; ++it) {
    double max_delta = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      if (col_sq[j] == 0.0) continue;  // constant feature
      // rho = x_j . (residual + x_j * w_j)
      double rho = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        rho += xs[i][j] * (residual[i] + xs[i][j] * coef_[j]);
      }
      // Soft threshold.
      const double threshold = lambda_ * n_d;
      double w_new = 0.0;
      if (rho > threshold) {
        w_new = (rho - threshold) / col_sq[j];
      } else if (rho < -threshold) {
        w_new = (rho + threshold) / col_sq[j];
      }
      const double delta = w_new - coef_[j];
      if (delta != 0.0) {
        for (std::size_t i = 0; i < n; ++i) residual[i] -= delta * xs[i][j];
        coef_[j] = w_new;
        max_delta = std::max(max_delta, std::abs(delta));
      }
    }
    if (max_delta < tol_) break;
  }
}

double LassoRegression::predict(const FeatureRow& row) const {
  if (!scaler_.fitted()) throw std::logic_error("Lasso: not fitted");
  const FeatureRow& xs = scaled_row(scaler_, row);
  double acc = intercept_;
  for (std::size_t j = 0; j < xs.size(); ++j) acc += coef_[j] * xs[j];
  return acc;
}

std::vector<std::size_t> LassoRegression::selected_features() const {
  std::vector<std::size_t> idx;
  for (std::size_t j = 0; j < coef_.size(); ++j) {
    if (coef_[j] != 0.0) idx.push_back(j);
  }
  std::sort(idx.begin(), idx.end(), [this](std::size_t a, std::size_t b) {
    return std::abs(coef_[a]) > std::abs(coef_[b]);
  });
  return idx;
}

}  // namespace sturgeon::ml
