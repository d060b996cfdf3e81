#include "ml/mlp.h"

#include <gtest/gtest.h>

#include <cmath>

#include "ml/factory.h"
#include "qos_like_data.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sturgeon::ml {
namespace {

using testing::bits;
using testing::Box;
using testing::qos_like_data;
using testing::QosLikeData;
using testing::random_box;

const MlpClassifier& qos_like_mlp() {
  static const MlpClassifier mlp = [] {
    const QosLikeData d = qos_like_data();
    MlpParams mp;
    mp.epochs = 60;
    MlpClassifier m(mp);
    m.fit(d.x, d.y);
    return m;
  }();
  return mlp;
}

TEST(MlpRegressor, LearnsSmoothNonlinearFunction) {
  Rng rng(81);
  DataSet train, test;
  for (int i = 0; i < 1200; ++i) {
    const double a = rng.uniform(-2, 2);
    const double b = rng.uniform(-2, 2);
    const double y = std::sin(a) + 0.3 * b * b;
    (i < 1000 ? train : test).add({a, b}, y);
  }
  MlpParams mp;
  mp.hidden = {16, 16};
  mp.epochs = 200;
  MlpRegressor mlp(mp);
  mlp.fit(train);
  EXPECT_GT(r_squared(test.y, mlp.predict_batch(test.x)), 0.95);
}

TEST(MlpRegressor, DeterministicPerSeed) {
  DataSet d;
  Rng rng(82);
  for (int i = 0; i < 100; ++i) {
    const double a = rng.uniform(0, 1);
    d.add({a}, 2.0 * a);
  }
  MlpParams mp;
  mp.epochs = 30;
  mp.seed = 11;
  MlpRegressor m1(mp), m2(mp);
  m1.fit(d);
  m2.fit(d);
  EXPECT_DOUBLE_EQ(m1.predict({0.4}), m2.predict({0.4}));
}

TEST(MlpRegressor, ConstantTargetSafe) {
  DataSet d;
  for (int i = 0; i < 40; ++i) d.add({static_cast<double>(i)}, 2.5);
  MlpParams mp;
  mp.epochs = 50;
  MlpRegressor mlp(mp);
  mlp.fit(d);
  EXPECT_NEAR(mlp.predict({20.0}), 2.5, 0.3);
}

TEST(MlpRegressor, Errors) {
  MlpParams bad;
  bad.epochs = 0;
  EXPECT_THROW(MlpRegressor{bad}, std::invalid_argument);
  MlpRegressor mlp;
  EXPECT_THROW(mlp.predict({1.0}), std::logic_error);
  EXPECT_THROW(mlp.fit(DataSet{}), std::invalid_argument);
}

TEST(MlpClassifier, LearnsXor) {
  std::vector<FeatureRow> x;
  std::vector<int> y;
  Rng rng(83);
  for (int i = 0; i < 600; ++i) {
    const double a = rng.uniform(0, 1);
    const double b = rng.uniform(0, 1);
    x.push_back({a, b});
    y.push_back((a > 0.5) != (b > 0.5) ? 1 : 0);
  }
  MlpParams mp;
  mp.hidden = {12, 12};
  mp.epochs = 400;
  MlpClassifier mlp(mp);
  mlp.fit(x, y);
  EXPECT_GE(accuracy(y, mlp.predict_batch(x)), 0.95);
}

TEST(MlpClassifier, ProbaBounds) {
  std::vector<FeatureRow> x{{0.0}, {1.0}, {0.1}, {0.9}};
  std::vector<int> y{0, 1, 0, 1};
  MlpParams mp;
  mp.epochs = 200;
  MlpClassifier mlp(mp);
  mlp.fit(x, y);
  const double p0 = mlp.predict_proba({0.0});
  const double p1 = mlp.predict_proba({1.0});
  EXPECT_GE(p0, 0.0);
  EXPECT_LE(p0, 1.0);
  EXPECT_LT(p0, p1);
}

TEST(MlpClassifier, PointBoxBoundsAreTheLogitPredictThresholds) {
  const MlpClassifier& mlp = qos_like_mlp();
  for (const FeatureRow& x : qos_like_data().x) {
    const double z = mlp.logit(x);
    const Interval b = mlp.logit_bounds(x, x);
    ASSERT_EQ(bits(b.lo), bits(z));
    ASSERT_EQ(bits(b.hi), bits(z));
    ASSERT_EQ(mlp.predict(x), 1.0 / (1.0 + std::exp(-z)) >= 0.5 ? 1 : 0);
  }
}

TEST(MlpClassifier, BoxBoundsHoldEveryRowInsideTheBox) {
  const MlpClassifier& mlp = qos_like_mlp();
  Rng rng(85);
  int proven = 0;
  for (int k = 0; k < 1000; ++k) {
    const Box box = random_box(rng);
    const Interval b = mlp.logit_bounds(box.lo, box.hi);
    const double z = mlp.logit(box.inside);
    ASSERT_LE(b.lo, z) << "box " << k;
    ASSERT_GE(b.hi, z) << "box " << k;
    const std::optional<int> label = mlp.box_label(box.lo, box.hi);
    if (label) {
      ++proven;
      ASSERT_EQ(*label, mlp.predict(box.inside)) << "box " << k;
    }
  }
  EXPECT_GT(proven, 0);
}

TEST(Classifier, OnlyLogisticRegressionAndTheMlpHaveAnIntervalPass) {
  const QosLikeData d = qos_like_data();
  const FeatureRow& x = d.x.front();
  for (ModelKind kind : {ModelKind::kLinear, ModelKind::kDecisionTree,
                         ModelKind::kRandomForest, ModelKind::kKnn,
                         ModelKind::kSvm, ModelKind::kMlp}) {
    const auto c = make_classifier(kind);
    c->fit(d.x, d.y);
    if (kind == ModelKind::kLinear || kind == ModelKind::kMlp) {
      EXPECT_TRUE(c->has_interval_pass()) << to_string(kind);
      continue;
    }
    EXPECT_FALSE(c->has_interval_pass()) << to_string(kind);
    EXPECT_FALSE(c->box_label(x, x).has_value()) << to_string(kind);
  }
}

TEST(MlpClassifier, Errors) {
  MlpClassifier mlp;
  EXPECT_THROW(mlp.predict({1.0}), std::logic_error);
  EXPECT_THROW(mlp.fit({}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace sturgeon::ml
