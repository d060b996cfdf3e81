#include "ml/tree.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"
#include "util/stats.h"

namespace sturgeon::ml {
namespace {

TEST(DecisionTreeRegressor, FitsPiecewiseConstantExactly) {
  DataSet d;
  for (int i = 0; i < 50; ++i) {
    const double x = static_cast<double>(i) / 10.0;
    d.add({x}, x < 2.5 ? 1.0 : 7.0);
  }
  TreeParams tp;
  tp.min_samples_leaf = 1;
  tp.min_samples_split = 2;
  DecisionTreeRegressor dt(tp);
  dt.fit(d);
  EXPECT_DOUBLE_EQ(dt.predict({1.0}), 1.0);
  EXPECT_DOUBLE_EQ(dt.predict({4.0}), 7.0);
}

TEST(DecisionTreeRegressor, LearnsNonlinearSurface) {
  Rng rng(51);
  DataSet train, test;
  for (int i = 0; i < 1500; ++i) {
    const double a = rng.uniform(0, 4);
    const double b = rng.uniform(0, 4);
    const double y = std::floor(a) * 2.0 + (b > 2.0 ? 5.0 : 0.0);
    (i < 1200 ? train : test).add({a, b}, y);
  }
  DecisionTreeRegressor dt;
  dt.fit(train);
  EXPECT_GT(r_squared(test.y, dt.predict_batch(test.x)), 0.95);
}

TEST(DecisionTreeRegressor, RespectsMaxDepth) {
  Rng rng(52);
  DataSet d;
  for (int i = 0; i < 500; ++i) {
    const double a = rng.uniform(0, 1);
    d.add({a}, a);
  }
  TreeParams tp;
  tp.max_depth = 2;
  DecisionTreeRegressor dt(tp);
  dt.fit(d);
  EXPECT_LE(dt.tree().depth(), 3);  // root at depth 1 + 2 levels
}

TEST(DecisionTreeRegressor, ConstantTargetIsSingleLeaf) {
  DataSet d;
  for (int i = 0; i < 20; ++i) d.add({static_cast<double>(i)}, 5.0);
  DecisionTreeRegressor dt;
  dt.fit(d);
  EXPECT_EQ(dt.tree().node_count(), 1u);
  EXPECT_DOUBLE_EQ(dt.predict({100.0}), 5.0);
}

TEST(DecisionTreeRegressor, Errors) {
  DecisionTreeRegressor dt;
  EXPECT_THROW(dt.predict({1.0}), std::logic_error);
  EXPECT_THROW(dt.fit(DataSet{}), std::invalid_argument);
}

TEST(DecisionTreeClassifier, XorIsLearnable) {
  // XOR needs depth >= 2 and defeats linear models.
  std::vector<FeatureRow> x;
  std::vector<int> y;
  Rng rng(53);
  for (int i = 0; i < 400; ++i) {
    const double a = rng.uniform(0, 1);
    const double b = rng.uniform(0, 1);
    x.push_back({a, b});
    y.push_back((a > 0.5) != (b > 0.5) ? 1 : 0);
  }
  DecisionTreeClassifier dt;
  dt.fit(x, y);
  EXPECT_GE(accuracy(y, dt.predict_batch(x)), 0.99);
  EXPECT_EQ(dt.predict({0.9, 0.1}), 1);
  EXPECT_EQ(dt.predict({0.9, 0.9}), 0);
}

TEST(DecisionTreeClassifier, MultiClass) {
  std::vector<FeatureRow> x;
  std::vector<int> y;
  for (int i = 0; i < 90; ++i) {
    const double a = static_cast<double>(i % 3) + 0.1;
    x.push_back({a});
    y.push_back(i % 3);
  }
  DecisionTreeClassifier dt;
  dt.fit(x, y);
  EXPECT_EQ(dt.predict({0.1}), 0);
  EXPECT_EQ(dt.predict({1.1}), 1);
  EXPECT_EQ(dt.predict({2.1}), 2);
}

TEST(DecisionTreeClassifier, MinSamplesLeafLimitsFragmentation) {
  std::vector<FeatureRow> x;
  std::vector<int> y;
  Rng rng(54);
  for (int i = 0; i < 100; ++i) {
    x.push_back({rng.uniform(0, 1)});
    y.push_back(rng.bernoulli(0.5) ? 1 : 0);  // pure noise
  }
  TreeParams tp;
  tp.min_samples_leaf = 20;
  DecisionTreeClassifier dt(tp);
  dt.fit(x, y);
  // With 20-sample leaves over 100 noisy points the tree must stay small.
  EXPECT_LE(dt.tree().node_count(), 11u);
}

TEST(DecisionTreeClassifier, Errors) {
  DecisionTreeClassifier dt;
  EXPECT_THROW(dt.fit({}, {}), std::invalid_argument);
  EXPECT_THROW(dt.fit({{1.0}}, {0, 1}), std::invalid_argument);
  // Ragged rows: one shorter and one longer than the first.
  EXPECT_THROW(dt.fit({{1.0, 2.0}, {3.0}}, {0, 1}), std::invalid_argument);
  EXPECT_THROW(dt.fit({{1.0}, {2.0, 3.0}}, {0, 1}), std::invalid_argument);
}

}  // namespace
}  // namespace sturgeon::ml
