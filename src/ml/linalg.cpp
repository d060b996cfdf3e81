#include "ml/linalg.h"

#include <cmath>
#include <stdexcept>

namespace sturgeon::ml {

std::vector<double> solve_linear_system(Matrix a, std::vector<double> b) {
  const std::size_t n = a.size();
  if (n == 0 || b.size() != n) {
    throw std::invalid_argument("solve_linear_system: bad shapes");
  }
  for (const auto& row : a) {
    if (row.size() != n) {
      throw std::invalid_argument("solve_linear_system: non-square matrix");
    }
  }
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    }
    if (std::abs(a[pivot][col]) < 1e-12) {
      throw std::runtime_error("solve_linear_system: singular matrix");
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    const double inv = 1.0 / a[col][col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a[r][col] * inv;
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a[r][c] -= factor * a[col][c];
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> x(n);
  for (std::size_t i = n; i-- > 0;) {
    double acc = b[i];
    for (std::size_t c = i + 1; c < n; ++c) acc -= a[i][c] * x[c];
    x[i] = acc / a[i][i];
  }
  return x;
}

Matrix normal_matrix(const std::vector<std::vector<double>>& rows,
                     double ridge) {
  if (rows.empty()) throw std::invalid_argument("normal_matrix: empty");
  const std::size_t d = rows[0].size();
  Matrix m(d, std::vector<double>(d, 0.0));
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = i; j < d; ++j) {
        m[i][j] += row[i] * row[j];
      }
    }
  }
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < i; ++j) m[i][j] = m[j][i];
    m[i][i] += ridge;
  }
  return m;
}

std::vector<double> normal_rhs(const std::vector<std::vector<double>>& rows,
                               const std::vector<double>& y) {
  if (rows.size() != y.size() || rows.empty()) {
    throw std::invalid_argument("normal_rhs: bad shapes");
  }
  const std::size_t d = rows[0].size();
  std::vector<double> v(d, 0.0);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t j = 0; j < d; ++j) v[j] += rows[r][j] * y[r];
  }
  return v;
}

}  // namespace sturgeon::ml
