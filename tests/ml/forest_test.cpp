#include "ml/forest.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"
#include "util/stats.h"

namespace sturgeon::ml {
namespace {

TEST(RandomForestRegressor, BeatsNoiseBetterThanNothing) {
  Rng rng(61);
  DataSet train, test;
  for (int i = 0; i < 1200; ++i) {
    const double a = rng.uniform(0, 3);
    const double b = rng.uniform(0, 3);
    const double y = std::sin(a) * 2.0 + b * b + rng.normal(0, 0.1);
    (i < 1000 ? train : test).add({a, b}, y);
  }
  ForestParams fp;
  fp.num_trees = 20;
  RandomForestRegressor rf(fp);
  rf.fit(train);
  EXPECT_EQ(rf.num_trees(), 20u);
  EXPECT_GT(r_squared(test.y, rf.predict_batch(test.x)), 0.95);
}

TEST(RandomForestRegressor, DeterministicPerSeed) {
  DataSet d;
  Rng rng(62);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.uniform(0, 1);
    d.add({a}, a * a);
  }
  ForestParams fp;
  fp.seed = 5;
  RandomForestRegressor r1(fp), r2(fp);
  r1.fit(d);
  r2.fit(d);
  EXPECT_DOUBLE_EQ(r1.predict({0.3}), r2.predict({0.3}));
}

TEST(RandomForestRegressor, Errors) {
  ForestParams fp;
  fp.num_trees = 0;
  EXPECT_THROW(RandomForestRegressor{fp}, std::invalid_argument);
  RandomForestRegressor rf;
  EXPECT_THROW(rf.predict({1.0}), std::logic_error);
}

TEST(RandomForestClassifier, LearnsXor) {
  std::vector<FeatureRow> x;
  std::vector<int> y;
  Rng rng(63);
  for (int i = 0; i < 600; ++i) {
    const double a = rng.uniform(0, 1);
    const double b = rng.uniform(0, 1);
    x.push_back({a, b});
    y.push_back((a > 0.5) != (b > 0.5) ? 1 : 0);
  }
  RandomForestClassifier rf;
  rf.fit(x, y);
  EXPECT_GE(accuracy(y, rf.predict_batch(x)), 0.95);
}

TEST(RandomForestClassifier, Errors) {
  RandomForestClassifier rf;
  EXPECT_THROW(rf.predict({1.0}), std::logic_error);
  EXPECT_THROW(rf.fit({}, {}), std::invalid_argument);
  // Ragged rows reach CartTree::fit through the bootstrap samples: one
  // row shorter, then one longer, than the rest.
  EXPECT_THROW(rf.fit({{1.0, 2.0}, {3.0}, {4.0, 5.0}, {6.0, 7.0}},
                      {0, 1, 0, 1}),
               std::invalid_argument);
  EXPECT_THROW(rf.fit({{1.0}, {2.0, 3.0}, {4.0}, {5.0}}, {0, 1, 0, 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace sturgeon::ml
