// Minimal dense linear algebra for the closed-form regressors: Gaussian
// elimination with partial pivoting on small (d <= ~20) systems.
#pragma once

#include <vector>

namespace sturgeon::ml {

/// Square matrix in row-major order.
using Matrix = std::vector<std::vector<double>>;

/// Solve A x = b in place (A and b are copied); throws std::runtime_error
/// if the matrix is numerically singular.
std::vector<double> solve_linear_system(Matrix a, std::vector<double> b);

/// C = A^T A for a tall data matrix (rows are samples), plus ridge*I.
Matrix normal_matrix(const std::vector<std::vector<double>>& rows,
                     double ridge);

/// v = A^T y.
std::vector<double> normal_rhs(const std::vector<std::vector<double>>& rows,
                               const std::vector<double>& y);

}  // namespace sturgeon::ml
