#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace sturgeon {
namespace {

TEST(OnlineStats, BasicMoments) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, MergeEqualsBulk) {
  OnlineStats a, b, all;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(3.0, 1.5);
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Percentile, ExactSmallCases) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 95), 7.0);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

TEST(Percentile, UnsortedInputHandled) {
  EXPECT_DOUBLE_EQ(percentile({9.0, 1.0, 5.0}, 50), 5.0);
}

// percentile_sorted's definition written out by itself: percentile_pair
// and percentile_sorted share their rank and interpolation code, so a
// change there would move both and still let them agree.
double written_out_percentile(const std::vector<double>& sorted, double p) {
  if (p <= 0.0) return sorted.front();
  if (p >= 100.0) return sorted.back();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

TEST(PercentilePair, MatchesSortedPercentilesBitForBit) {
  const std::pair<double, double> rank_pairs[] = {
      {95.0, 99.0}, {0.0, 100.0}, {95.0, 95.0}, {99.0, 100.0}};
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  Rng rng(29);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 64; ++n) sizes.push_back(n);
  for (int i = 0; i < 40; ++i) sizes.push_back(65 + rng.next_below(4000));
  for (std::size_t n : sizes) {
    // Few distinct values for small alphabets (long runs of ties), a
    // continuum otherwise; half the vectors arrive already sorted.
    const std::uint64_t alphabet = 1 + rng.next_below(2 * n);
    std::vector<double> values(n);
    for (double& x : values) {
      x = static_cast<double>(rng.next_below(alphabet)) * 0.37 +
          (alphabet > n ? rng.next_double() : 0.0);
    }
    if (rng.bernoulli(0.5)) std::sort(values.begin(), values.end());
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [p_lo, p_hi] : rank_pairs) {
      SCOPED_TRACE(::testing::Message() << "n " << n << " alphabet "
                                        << alphabet << " p " << p_lo << "/"
                                        << p_hi);
      std::vector<double> scratch = values;
      const auto [lo, hi] = percentile_pair(scratch, p_lo, p_hi);
      EXPECT_EQ(bits(lo), bits(percentile_sorted(sorted, p_lo)));
      EXPECT_EQ(bits(hi), bits(percentile_sorted(sorted, p_hi)));
      EXPECT_EQ(bits(lo), bits(written_out_percentile(sorted, p_lo)));
      EXPECT_EQ(bits(hi), bits(written_out_percentile(sorted, p_hi)));
      // A reordering, not an edit.
      std::sort(scratch.begin(), scratch.end());
      EXPECT_EQ(scratch, sorted);
    }
  }
}

TEST(PercentilePair, RejectsEmptyAndReversedRanks) {
  std::vector<double> empty;
  EXPECT_THROW(percentile_pair(empty, 95.0, 99.0), std::invalid_argument);
  std::vector<double> v{3.0, 1.0, 2.0};
  EXPECT_THROW(percentile_pair(v, 99.0, 95.0), std::invalid_argument);
}

TEST(P2Quantile, MatchesExactOnNormalData) {
  Rng rng(21);
  P2Quantile p95(0.95);
  std::vector<double> all;
  for (int i = 0; i < 50000; ++i) {
    const double v = rng.normal(10.0, 3.0);
    p95.add(v);
    all.push_back(v);
  }
  const double exact = percentile(all, 95.0);
  EXPECT_NEAR(p95.value(), exact, 0.1);
}

TEST(P2Quantile, SmallSampleIsExact) {
  P2Quantile p50(0.5);
  p50.add(1.0);
  p50.add(3.0);
  p50.add(2.0);
  EXPECT_DOUBLE_EQ(p50.value(), 2.0);
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
}

TEST(P2Quantile, HeavyTailTracksHighQuantile) {
  Rng rng(23);
  P2Quantile p99(0.99);
  std::vector<double> all;
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.lognormal_mean_cv(5.0, 1.2);
    p99.add(v);
    all.push_back(v);
  }
  const double exact = percentile(all, 99.0);
  EXPECT_NEAR(p99.value() / exact, 1.0, 0.08);
}

TEST(Metrics, RSquared) {
  const std::vector<double> truth{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(r_squared(truth, truth), 1.0);
  // Mean predictor scores 0.
  const std::vector<double> mean_pred(5, 3.0);
  EXPECT_NEAR(r_squared(truth, mean_pred), 0.0, 1e-12);
  EXPECT_THROW(r_squared(truth, {1.0}), std::invalid_argument);
}

TEST(Metrics, MseMae) {
  const std::vector<double> t{1, 2, 3};
  const std::vector<double> p{2, 2, 5};
  EXPECT_DOUBLE_EQ(mse(t, p), (1.0 + 0.0 + 4.0) / 3.0);
  EXPECT_DOUBLE_EQ(mae(t, p), (1.0 + 0.0 + 2.0) / 3.0);
}

TEST(Metrics, Accuracy) {
  EXPECT_DOUBLE_EQ(accuracy({1, 0, 1, 1}, {1, 0, 0, 1}), 0.75);
}

TEST(Metrics, PrecisionRecallF1) {
  // truth: 3 positives; pred: 2 true positives, 1 false positive.
  const std::vector<int> truth{1, 1, 1, 0, 0, 0};
  const std::vector<int> pred{1, 1, 0, 1, 0, 0};
  EXPECT_DOUBLE_EQ(precision(truth, pred), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(recall(truth, pred), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(f1_score(truth, pred), 2.0 / 3.0);

  // Perfect classifier.
  EXPECT_DOUBLE_EQ(f1_score(truth, truth), 1.0);
}

TEST(Metrics, F1DegenerateCases) {
  // No predicted positives.
  EXPECT_DOUBLE_EQ(precision({1, 0}, {0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(f1_score({1, 0}, {0, 0}), 0.0);
  // No actual positives but a false alarm.
  EXPECT_DOUBLE_EQ(recall({0, 0}, {1, 0}), 0.0);
  EXPECT_DOUBLE_EQ(f1_score({0, 0}, {1, 0}), 0.0);
  EXPECT_THROW(f1_score({1}, {1, 0}), std::invalid_argument);
}

}  // namespace
}  // namespace sturgeon
