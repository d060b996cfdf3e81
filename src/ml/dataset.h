// Tabular dataset container plus the standard preprocessing utilities
// (train/test split, k-fold cross validation, feature standardization)
// used by the offline model trainer (paper Section V-A/V-C).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace sturgeon::ml {

using FeatureRow = std::vector<double>;

/// Feature matrix + regression target. Classification tasks reuse `y`
/// with integer-coded labels (0/1).
struct DataSet {
  std::vector<FeatureRow> x;
  std::vector<double> y;

  std::size_t size() const { return x.size(); }
  std::size_t num_features() const { return x.empty() ? 0 : x[0].size(); }
  bool empty() const { return x.empty(); }

  void add(FeatureRow row, double target);

  /// Throws std::invalid_argument unless all rows have equal arity and
  /// |x| == |y|.
  void validate() const;
};

/// Deterministic shuffled split; test_fraction in (0,1).
struct SplitResult {
  DataSet train;
  DataSet test;
};
SplitResult train_test_split(const DataSet& data, double test_fraction,
                             std::uint64_t seed);

/// Index folds for k-fold CV (shuffled, near-equal sizes).
std::vector<std::vector<std::size_t>> kfold_indices(std::size_t n, int k,
                                                    std::uint64_t seed);

/// Gather a row-subset of a dataset.
DataSet subset(const DataSet& data, const std::vector<std::size_t>& idx);

/// Per-feature standardization to zero mean / unit variance. Constant
/// features map to zero. Fitted on train data, applied to any row.
class StandardScaler {
 public:
  void fit(const std::vector<FeatureRow>& x);
  FeatureRow transform(const FeatureRow& row) const;
  std::vector<FeatureRow> transform(const std::vector<FeatureRow>& x) const;
  /// Allocation-free variant that scaled_row() and scaled_box() build on:
  /// scales `row[0..dim)` into `out` with arithmetic identical to
  /// transform().
  void transform_into(const double* row, double* out) const;
  bool fitted() const { return !mean_.empty(); }
  std::size_t dim() const { return mean_.size(); }

  const std::vector<double>& mean() const { return mean_; }
  const std::vector<double>& stddev() const { return stddev_; }

 private:
  std::vector<double> mean_;
  std::vector<double> stddev_;
};

/// `row` standardized by `scaler` into per-thread storage, valid until
/// the calling thread's next call: the allocation-free scalar predict
/// path every model family shares. Same arithmetic as
/// `scaler.transform(row)`, and the same checks.
const FeatureRow& scaled_row(const StandardScaler& scaler,
                             const FeatureRow& row);

/// The two corners of the box lo[j] <= x[j] <= hi[j] standardized by
/// `scaler` into per-thread storage of their own, valid until the calling
/// thread's next call. Standardization is monotone in each feature, so
/// every row of the box scales into the box of the scaled corners: the
/// first step of every interval pass. Same checks as scaled_row().
struct ScaledBox {
  const FeatureRow& lo;
  const FeatureRow& hi;
};
ScaledBox scaled_box(const StandardScaler& scaler, const FeatureRow& lo,
                     const FeatureRow& hi);

}  // namespace sturgeon::ml
