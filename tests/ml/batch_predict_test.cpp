// Batched inference contract: for every model family, predict_batch must
// reproduce the scalar predict() bit-for-bit (same accumulation order),
// because the core prediction cache serves batched results where the
// uncached path would have called predict() -- search results must not
// change when the cache is enabled.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "ml/factory.h"
#include "ml/mlp.h"
#include "util/rng.h"
#include "util/types.h"

namespace sturgeon::ml {
namespace {

constexpr std::size_t kArity = 4;  // the Sturgeon feature arity

DataSet random_regression_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  DataSet d;
  for (std::size_t i = 0; i < n; ++i) {
    FeatureRow row(kArity);
    for (auto& v : row) v = rng.uniform(0.0, 4.0);
    const double y =
        2.0 * row[0] + row[1] * row[2] - 0.5 * row[3] + rng.uniform(-0.1, 0.1);
    d.add(row, y);
  }
  return d;
}

std::vector<FeatureRow> random_rows(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FeatureRow> rows(n);
  for (auto& row : rows) {
    row.resize(kArity);
    for (auto& v : row) v = rng.uniform(-1.0, 5.0);
  }
  return rows;
}

std::vector<double> flatten(const std::vector<FeatureRow>& rows) {
  std::vector<double> flat;
  flat.reserve(rows.size() * kArity);
  for (const auto& row : rows) flat.insert(flat.end(), row.begin(), row.end());
  return flat;
}

std::vector<ModelKind> regressor_kinds() {
  return {ModelKind::kLinear,       ModelKind::kLasso, ModelKind::kDecisionTree,
          ModelKind::kRandomForest, ModelKind::kKnn,   ModelKind::kSvm,
          ModelKind::kMlp};
}

std::vector<ModelKind> classifier_kinds() {
  return {ModelKind::kLinear, ModelKind::kDecisionTree,
          ModelKind::kRandomForest, ModelKind::kKnn, ModelKind::kSvm,
          ModelKind::kMlp};
}

TEST(BatchPredict, RegressorsBitIdenticalToScalar) {
  const auto train = random_regression_data(240, 11);
  const auto rows = random_rows(64, 12);
  const auto flat = flatten(rows);
  for (ModelKind kind : regressor_kinds()) {
    auto model = make_regressor(kind);
    model->fit(train);
    std::vector<double> batch(rows.size());
    model->predict_batch(flat.data(), rows.size(), kArity, batch.data());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[i]),
                std::bit_cast<std::uint64_t>(model->predict(rows[i])))
          << to_string(kind) << " row " << i;
    }
    // The vector<FeatureRow> convenience overload must agree too.
    const auto vec = model->predict_batch(rows);
    ASSERT_EQ(vec.size(), rows.size()) << to_string(kind);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(vec[i]),
                std::bit_cast<std::uint64_t>(batch[i]))
          << to_string(kind) << " row " << i;
    }
  }
}

TEST(BatchPredict, ClassifiersMatchScalar) {
  const auto rows = random_rows(200, 13);
  std::vector<int> labels(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    labels[i] = rows[i][0] + rows[i][1] > rows[i][2] + rows[i][3] ? 1 : 0;
  }
  const auto test_rows = random_rows(64, 14);
  const auto flat = flatten(test_rows);
  for (ModelKind kind : classifier_kinds()) {
    auto model = make_classifier(kind);
    model->fit(rows, labels);
    std::vector<int> batch(test_rows.size());
    model->predict_batch(flat.data(), test_rows.size(), kArity, batch.data());
    for (std::size_t i = 0; i < test_rows.size(); ++i) {
      EXPECT_EQ(batch[i], model->predict(test_rows[i]))
          << to_string(kind) << " row " << i;
    }
    const auto vec = model->predict_batch(test_rows);
    ASSERT_EQ(vec.size(), test_rows.size()) << to_string(kind);
    for (std::size_t i = 0; i < test_rows.size(); ++i) {
      EXPECT_EQ(vec[i], batch[i]) << to_string(kind) << " row " << i;
    }
  }
}

// Training data with the runtime's LS feature layout {kQPS, cores, GHz,
// ways} on the paper platform: a power-like target and a QoS-like label.
struct SliceData {
  DataSet regression;
  std::vector<int> labels;
};

SliceData slice_training_data(const MachineSpec& machine) {
  Rng rng(21);
  SliceData d;
  for (int i = 0; i < 300; ++i) {
    const double kqps = rng.uniform(0.0, 60.0);
    const double cores = rng.uniform_int(1, machine.num_cores);
    const double ghz =
        machine.freq_at(rng.uniform_int(0, machine.max_freq_level()));
    const double ways = rng.uniform_int(1, machine.llc_ways);
    d.regression.add({kqps, cores, ghz, ways},
                     20.0 + 2.5 * cores * ghz * ghz + 0.1 * kqps);
    d.labels.push_back(cores * ghz >= 0.5 * kqps && ways >= 3 ? 1 : 0);
  }
  return d;
}

// Sweeps every (cores, P-state, ways) slice of the paper platform, cores
// and ways including 0, at several loads: the scalar predict() the
// runtime calls per query must agree with predict_batch bit for bit on
// every row.
void expect_scalar_matches_batch_on_slice_grid(const MachineSpec& machine,
                                               const Regressor& regressor,
                                               const Classifier& classifier) {
  for (double kqps : {0.0, 6.0, 23.5, 48.0}) {
    std::vector<FeatureRow> rows;
    for (int c = 0; c <= machine.num_cores; ++c) {
      for (int f = 0; f <= machine.max_freq_level(); ++f) {
        for (int w = 0; w <= machine.llc_ways; ++w) {
          rows.push_back({kqps, static_cast<double>(c), machine.freq_at(f),
                          static_cast<double>(w)});
        }
      }
    }
    const auto flat = flatten(rows);
    std::vector<double> values(rows.size());
    regressor.predict_batch(flat.data(), rows.size(), kArity, values.data());
    std::vector<int> classes(rows.size());
    classifier.predict_batch(flat.data(), rows.size(), kArity,
                             classes.data());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(regressor.predict(rows[i])),
                std::bit_cast<std::uint64_t>(values[i]))
          << "kqps " << kqps << " row " << i;
      ASSERT_EQ(classifier.predict(rows[i]), classes[i])
          << "kqps " << kqps << " row " << i;
    }
  }
}

// The MLP family as the trainer deploys it (factory hyperparameters).
TEST(BatchPredict, DeployedMlpScalarMatchesBatchOnSliceGrid) {
  const MachineSpec machine = MachineSpec::xeon_e5_2630_v4();
  const SliceData data = slice_training_data(machine);
  auto regressor = make_regressor(ModelKind::kMlp);
  regressor->fit(data.regression);
  auto classifier = make_classifier(ModelKind::kMlp);
  classifier->fit(data.regression.x, data.labels);
  expect_scalar_matches_batch_on_slice_grid(machine, *regressor, *classifier);
}

// Nets wider than anything deployed, with two hidden layers of different
// widths: scalar inference has no width limit.
TEST(BatchPredict, WideMlpScalarMatchesBatchOnSliceGrid) {
  const MachineSpec machine = MachineSpec::xeon_e5_2630_v4();
  const SliceData data = slice_training_data(machine);
  MlpParams params;
  params.hidden = {96, 24};
  params.epochs = 5;
  MlpRegressor regressor(params);
  regressor.fit(data.regression);
  params.hidden = {24, 130};
  MlpClassifier classifier(params);
  classifier.fit(data.regression.x, data.labels);
  expect_scalar_matches_batch_on_slice_grid(machine, regressor, classifier);
}

TEST(BatchPredict, EmptyBatchIsNoop) {
  auto model = make_regressor(ModelKind::kLinear);
  model->fit(random_regression_data(50, 15));
  double sentinel = 42.0;
  model->predict_batch(nullptr, 0, kArity, &sentinel);
  EXPECT_EQ(sentinel, 42.0);
  EXPECT_TRUE(model->predict_batch(std::vector<FeatureRow>{}).empty());
}

TEST(BatchPredict, RaggedRowsRejected) {
  auto model = make_regressor(ModelKind::kLinear);
  model->fit(random_regression_data(50, 16));
  std::vector<FeatureRow> ragged = {{1.0, 2.0, 3.0, 4.0}, {1.0, 2.0}};
  EXPECT_THROW(model->predict_batch(ragged), std::invalid_argument);
}

TEST(BatchPredict, ArityMismatchRejected) {
  const auto train = random_regression_data(50, 17);
  std::vector<double> xs(6, 1.0);
  std::vector<double> out(2);
  for (ModelKind kind : {ModelKind::kLinear, ModelKind::kKnn, ModelKind::kSvm,
                         ModelKind::kMlp}) {
    auto model = make_regressor(kind);
    model->fit(train);
    EXPECT_THROW(model->predict_batch(xs.data(), 2, 3, out.data()),
                 std::invalid_argument)
        << to_string(kind);
  }
}

TEST(BatchPredict, UnfittedRejected) {
  std::vector<double> xs(kArity, 1.0);
  double out = 0.0;
  for (ModelKind kind : {ModelKind::kLinear, ModelKind::kKnn,
                         ModelKind::kSvm, ModelKind::kMlp}) {
    auto model = make_regressor(kind);
    EXPECT_THROW(model->predict_batch(xs.data(), 1, kArity, &out),
                 std::logic_error)
        << to_string(kind);
  }
}

}  // namespace
}  // namespace sturgeon::ml
