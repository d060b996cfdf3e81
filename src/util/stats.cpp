#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sturgeon {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

void OnlineStats::reset() { *this = OnlineStats{}; }

double OnlineStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double OnlineStats::sample_variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

namespace {

/// Where the p-th percentile of n sorted values lies: the value at rank
/// `k`, or, when `interpolate`, between ranks k and k + 1 at `frac`.
struct PercentileRank {
  std::size_t k = 0;
  double frac = 0.0;
  bool interpolate = false;
};

PercentileRank percentile_rank(std::size_t n, double p) {
  if (p <= 0.0) return {0, 0.0, false};
  if (p >= 100.0) return {n - 1, 0.0, false};
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= n) return {n - 1, 0.0, false};
  return {lo, frac, true};
}

double interpolate(double at_k, double at_next, double frac) {
  return at_k * (1.0 - frac) + at_next * frac;
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile of empty set");
  const PercentileRank r = percentile_rank(sorted.size(), p);
  return r.interpolate ? interpolate(sorted[r.k], sorted[r.k + 1], r.frac)
                       : sorted[r.k];
}

std::pair<double, double> percentile_pair(std::vector<double>& values,
                                          double p_lo, double p_hi) {
  if (values.empty()) throw std::invalid_argument("percentile of empty set");
  if (!(p_lo <= p_hi)) {
    throw std::invalid_argument("percentile_pair: p_lo > p_hi");
  }
  double* const v = values.data();
  double* const end = v + values.size();
  // Precondition: [from, n) holds exactly the order statistics from..n-1.
  // Selecting rank k leaves [k + 1, n) holding ranks k + 1..n-1, so the
  // rank after k is that tail's minimum and a higher rank is a second
  // selection inside it.
  const auto select = [&](std::size_t from, const PercentileRank& r) {
    std::nth_element(v + from, v + r.k, end);
    if (!r.interpolate) return v[r.k];
    return interpolate(v[r.k], *std::min_element(v + r.k + 1, end), r.frac);
  };
  const PercentileRank lo = percentile_rank(values.size(), p_lo);
  const PercentileRank hi = percentile_rank(values.size(), p_hi);
  const double at_lo = select(0, lo);
  return {at_lo, select(lo.k, hi)};
}

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, p);
}

P2Quantile::P2Quantile(double quantile) : quantile_(quantile) {
  if (quantile <= 0.0 || quantile >= 1.0) {
    throw std::invalid_argument("P2Quantile: quantile must be in (0,1)");
  }
  dn_[0] = 0.0;
  dn_[1] = quantile_ / 2.0;
  dn_[2] = quantile_;
  dn_[3] = (1.0 + quantile_) / 2.0;
  dn_[4] = 1.0;
  for (int i = 0; i < 5; ++i) {
    q_[i] = 0.0;
    n_[i] = static_cast<double>(i + 1);
    np_[i] = 1.0 + 4.0 * dn_[i];
  }
}

void P2Quantile::add(double x) {
  if (count_ < 5) {
    q_[count_++] = x;
    if (count_ == 5) std::sort(q_, q_ + 5);
    return;
  }
  ++count_;

  int k = 0;
  if (x < q_[0]) {
    q_[0] = x;
  } else if (x >= q_[4]) {
    q_[4] = x;
    k = 3;
  } else {
    while (k < 3 && x >= q_[k + 1]) ++k;
  }
  for (int i = k + 1; i < 5; ++i) n_[i] += 1.0;
  for (int i = 0; i < 5; ++i) np_[i] += dn_[i];

  for (int i = 1; i <= 3; ++i) {
    const double d = np_[i] - n_[i];
    if ((d >= 1.0 && n_[i + 1] - n_[i] > 1.0) ||
        (d <= -1.0 && n_[i - 1] - n_[i] < -1.0)) {
      const double sign = d >= 0 ? 1.0 : -1.0;
      // Piecewise-parabolic prediction.
      const double qp =
          q_[i] + sign / (n_[i + 1] - n_[i - 1]) *
                      ((n_[i] - n_[i - 1] + sign) * (q_[i + 1] - q_[i]) /
                           (n_[i + 1] - n_[i]) +
                       (n_[i + 1] - n_[i] - sign) * (q_[i] - q_[i - 1]) /
                           (n_[i] - n_[i - 1]));
      if (q_[i - 1] < qp && qp < q_[i + 1]) {
        q_[i] = qp;
      } else {  // fall back to linear prediction
        const int j = i + static_cast<int>(sign);
        q_[i] += sign * (q_[j] - q_[i]) / (n_[j] - n_[i]);
      }
      n_[i] += sign;
    }
  }
}

double P2Quantile::value() const {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    std::vector<double> v(q_, q_ + count_);
    std::sort(v.begin(), v.end());
    return percentile_sorted(v, quantile_ * 100.0);
  }
  return q_[2];
}

namespace {
void check_sizes(std::size_t a, std::size_t b, const char* what) {
  if (a != b || a == 0) {
    throw std::invalid_argument(std::string(what) +
                                ": size mismatch or empty input");
  }
}
}  // namespace

double r_squared(const std::vector<double>& truth,
                 const std::vector<double>& pred) {
  check_sizes(truth.size(), pred.size(), "r_squared");
  double mean = 0.0;
  for (double t : truth) mean += t;
  mean /= static_cast<double>(truth.size());
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    ss_res += (truth[i] - pred[i]) * (truth[i] - pred[i]);
    ss_tot += (truth[i] - mean) * (truth[i] - mean);
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

double mse(const std::vector<double>& truth, const std::vector<double>& pred) {
  check_sizes(truth.size(), pred.size(), "mse");
  double s = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    s += (truth[i] - pred[i]) * (truth[i] - pred[i]);
  }
  return s / static_cast<double>(truth.size());
}

double mae(const std::vector<double>& truth, const std::vector<double>& pred) {
  check_sizes(truth.size(), pred.size(), "mae");
  double s = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    s += std::abs(truth[i] - pred[i]);
  }
  return s / static_cast<double>(truth.size());
}

double accuracy(const std::vector<int>& truth, const std::vector<int>& pred) {
  check_sizes(truth.size(), pred.size(), "accuracy");
  std::size_t hit = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] == pred[i]) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(truth.size());
}

namespace {
struct BinaryCounts {
  std::size_t tp = 0, fp = 0, fn = 0;
};
BinaryCounts binary_counts(const std::vector<int>& truth,
                           const std::vector<int>& pred, const char* what) {
  check_sizes(truth.size(), pred.size(), what);
  BinaryCounts c;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (pred[i] == 1 && truth[i] == 1) ++c.tp;
    if (pred[i] == 1 && truth[i] != 1) ++c.fp;
    if (pred[i] != 1 && truth[i] == 1) ++c.fn;
  }
  return c;
}
}  // namespace

double precision(const std::vector<int>& truth, const std::vector<int>& pred) {
  const auto c = binary_counts(truth, pred, "precision");
  return c.tp + c.fp == 0
             ? 0.0
             : static_cast<double>(c.tp) / static_cast<double>(c.tp + c.fp);
}

double recall(const std::vector<int>& truth, const std::vector<int>& pred) {
  const auto c = binary_counts(truth, pred, "recall");
  return c.tp + c.fn == 0
             ? 0.0
             : static_cast<double>(c.tp) / static_cast<double>(c.tp + c.fn);
}

double f1_score(const std::vector<int>& truth, const std::vector<int>& pred) {
  const double p = precision(truth, pred);
  const double r = recall(truth, pred);
  return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

}  // namespace sturgeon
