// Streaming and batch statistics used by the telemetry layer and the
// experiment harness: Welford online moments, exact batch percentiles,
// the P² online quantile estimator, and simple regression metrics.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace sturgeon {

/// Numerically stable online mean/variance (Welford).
class OnlineStats {
 public:
  void add(double x);
  void merge(const OnlineStats& other);
  void reset();

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< population variance
  double sample_variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact percentile of a batch, p in [0,100], by linear interpolation
/// between closest ranks. Copies and sorts; use for offline analysis.
double percentile(std::vector<double> values, double p);

/// Percentile over an already-sorted ascending range (no copy).
double percentile_sorted(const std::vector<double>& sorted, double p);

/// The p_lo-th and p_hi-th percentiles (p_lo <= p_hi) of `values`, each
/// equal to percentile_sorted on a sorted copy, found by selection in
/// O(n) instead of a sort. Reorders `values`. Bit-identical for any
/// values without NaN (-0.0 and +0.0 tie, so either may be returned).
std::pair<double, double> percentile_pair(std::vector<double>& values,
                                          double p_lo, double p_hi);

/// P² (Jain & Chlamtac) single-quantile online estimator: O(1) memory,
/// no sample storage. Used by the 1 s telemetry sampler for p95/p99.
class P2Quantile {
 public:
  explicit P2Quantile(double quantile);

  void add(double x);
  /// Current estimate; exact while fewer than 5 samples.
  double value() const;
  std::size_t count() const { return count_; }

 private:
  double q_[5];       // marker heights
  double n_[5];       // marker positions
  double np_[5];      // desired positions
  double dn_[5];      // position increments
  double quantile_;
  std::size_t count_ = 0;
};

/// Coefficient of determination R^2 of predictions vs. ground truth.
/// Returns 1 for a perfect fit; can be negative for a fit worse than the
/// mean predictor. Requires equal non-zero sizes.
double r_squared(const std::vector<double>& truth,
                 const std::vector<double>& pred);

/// Mean squared / mean absolute error.
double mse(const std::vector<double>& truth, const std::vector<double>& pred);
double mae(const std::vector<double>& truth, const std::vector<double>& pred);

/// Classification accuracy on +-1 or arbitrary integer-coded labels.
double accuracy(const std::vector<int>& truth, const std::vector<int>& pred);

/// Precision / recall / F1 for binary labels (positive class = 1).
/// Degenerate cases (no predicted / no actual positives) score 0.
double precision(const std::vector<int>& truth, const std::vector<int>& pred);
double recall(const std::vector<int>& truth, const std::vector<int>& pred);
double f1_score(const std::vector<int>& truth, const std::vector<int>& pred);

}  // namespace sturgeon
