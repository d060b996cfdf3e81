#include "ml/logistic.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "qos_like_data.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sturgeon::ml {
namespace {

void separable_data(std::size_t n, std::uint64_t seed,
                    std::vector<FeatureRow>& x, std::vector<int>& y) {
  // Label 1 iff x0 + x1 > 4 (with margin gap).
  Rng rng(seed);
  x.clear();
  y.clear();
  while (x.size() < n) {
    const double a = rng.uniform(0, 5);
    const double b = rng.uniform(0, 5);
    const double s = a + b;
    if (std::abs(s - 4.0) < 0.3) continue;  // margin
    x.push_back({a, b});
    y.push_back(s > 4.0 ? 1 : 0);
  }
}

TEST(LogisticRegression, SeparatesLinearlySeparableData) {
  std::vector<FeatureRow> x;
  std::vector<int> y;
  separable_data(300, 31, x, y);
  LogisticRegression lr;
  lr.fit(x, y);
  EXPECT_GE(accuracy(y, lr.predict_batch(x)), 0.98);
}

TEST(LogisticRegression, ProbabilitiesOrdered) {
  std::vector<FeatureRow> x;
  std::vector<int> y;
  separable_data(300, 33, x, y);
  LogisticRegression lr;
  lr.fit(x, y);
  EXPECT_LT(lr.predict_proba({0.0, 0.0}), 0.2);
  EXPECT_GT(lr.predict_proba({5.0, 5.0}), 0.8);
}

TEST(LogisticRegression, GeneralizesToFreshSamples) {
  std::vector<FeatureRow> xtr, xte;
  std::vector<int> ytr, yte;
  separable_data(400, 35, xtr, ytr);
  separable_data(150, 36, xte, yte);
  LogisticRegression lr;
  lr.fit(xtr, ytr);
  EXPECT_GE(accuracy(yte, lr.predict_batch(xte)), 0.96);
}

using testing::bits;
using testing::Box;
using testing::qos_like_data;
using testing::QosLikeData;
using testing::random_box;

const LogisticRegression& qos_like_lr() {
  static const LogisticRegression lr = [] {
    const QosLikeData d = qos_like_data();
    LogisticRegression m;
    m.fit(d.x, d.y);
    return m;
  }();
  return lr;
}

TEST(LogisticRegression, PointBoxBoundsAreTheLogitPredictThresholds) {
  const LogisticRegression& lr = qos_like_lr();
  for (const FeatureRow& x : qos_like_data().x) {
    const double z = lr.logit(x);
    const Interval b = lr.logit_bounds(x, x);
    ASSERT_EQ(bits(b.lo), bits(z));
    ASSERT_EQ(bits(b.hi), bits(z));
    // predict_proba() is the two-branch sigmoid of that logit.
    const double p = z >= 0.0 ? 1.0 / (1.0 + std::exp(-z))
                              : std::exp(z) / (1.0 + std::exp(z));
    ASSERT_EQ(bits(lr.predict_proba(x)), bits(p));
    ASSERT_EQ(lr.predict(x), p >= 0.5 ? 1 : 0);
  }
}

TEST(LogisticRegression, BoxBoundsHoldEveryRowInsideTheBox) {
  const LogisticRegression& lr = qos_like_lr();
  Rng rng(86);
  int proven = 0;
  for (int k = 0; k < 1000; ++k) {
    const Box box = random_box(rng);
    const Interval b = lr.logit_bounds(box.lo, box.hi);
    for (const FeatureRow* x : {&box.lo, &box.inside, &box.hi}) {
      const double z = lr.logit(*x);
      ASSERT_LE(b.lo, z) << "box " << k;
      ASSERT_GE(b.hi, z) << "box " << k;
    }
    const std::optional<int> label = lr.box_label(box.lo, box.hi);
    if (label) {
      ++proven;
      ASSERT_EQ(*label, lr.predict(box.inside)) << "box " << k;
      ASSERT_EQ(*label, lr.predict(box.lo)) << "box " << k;
      ASSERT_EQ(*label, lr.predict(box.hi)) << "box " << k;
    }
  }
  EXPECT_GT(proven, 0);
}

TEST(LogisticRegression, RejectsBadInput) {
  LogisticRegression lr;
  EXPECT_THROW(lr.fit({}, {}), std::invalid_argument);
  EXPECT_THROW(lr.fit({{1.0}}, {2}), std::invalid_argument);  // label not 0/1
  EXPECT_THROW(lr.fit({{1.0}}, {0, 1}), std::invalid_argument);
  EXPECT_THROW(lr.predict({1.0}), std::logic_error);
  EXPECT_THROW(LogisticRegression(0.0), std::invalid_argument);
}

}  // namespace
}  // namespace sturgeon::ml
