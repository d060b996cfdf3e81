// Inference contract of the ml layer. Every model family answers through
// its scalar predict() alone, and predict_batch(rows) is one predict() per
// row, so each family must reject what its predict() cannot answer: a row
// of the wrong width, or any row before fit(). The MLP's scalar predict()
// runs MlpNet::infer over per-thread scratch; it must return what the
// training pass, MlpNet::forward, computes, bit for bit and at any width.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
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

std::vector<int> random_labels(const std::vector<FeatureRow>& rows) {
  std::vector<int> labels(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    labels[i] = rows[i][0] + rows[i][1] > rows[i][2] + rows[i][3] ? 1 : 0;
  }
  return labels;
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

// Training data with the runtime's LS feature layout {kQPS, cores, GHz,
// ways} on the paper platform, standardized as the MLP wrappers do: a
// standardized power-like target and a QoS-like label.
struct SliceData {
  StandardScaler scaler;
  std::vector<FeatureRow> x;
  std::vector<double> power;
  std::vector<double> label;
};

SliceData slice_training_data(const MachineSpec& machine) {
  Rng rng(21);
  std::vector<FeatureRow> raw;
  SliceData d;
  for (int i = 0; i < 300; ++i) {
    const double kqps = rng.uniform(0.0, 60.0);
    const double cores = rng.uniform_int(1, machine.num_cores);
    const double ghz =
        machine.freq_at(rng.uniform_int(0, machine.max_freq_level()));
    const double ways = rng.uniform_int(1, machine.llc_ways);
    raw.push_back({kqps, cores, ghz, ways});
    d.power.push_back(20.0 + 2.5 * cores * ghz * ghz + 0.1 * kqps);
    d.label.push_back(cores * ghz >= 0.5 * kqps && ways >= 3 ? 1.0 : 0.0);
  }
  d.scaler.fit(raw);
  d.x = d.scaler.transform(raw);
  double mean = 0.0, var = 0.0;
  for (double p : d.power) mean += p / static_cast<double>(d.power.size());
  for (double p : d.power) var += (p - mean) * (p - mean);
  const double sd = std::sqrt(var / static_cast<double>(d.power.size()));
  for (double& p : d.power) p = (p - mean) / sd;
  return d;
}

// A net trained on `targets` by mini-batch Adam, as the MLP wrappers
// train theirs: squared loss on the output, or cross-entropy on its
// sigmoid when `logistic`.
detail::MlpNet trained_net(const SliceData& data,
                           const std::vector<double>& targets,
                           const std::vector<int>& hidden, int epochs,
                           bool logistic) {
  detail::MlpNet net;
  net.init(kArity, hidden, 23);
  std::vector<std::vector<double>> acts;
  int step = 0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (std::size_t start = 0; start < data.x.size(); start += 32) {
      const std::size_t end = std::min(data.x.size(), start + 32);
      for (std::size_t i = start; i < end; ++i) {
        const double z = net.forward(data.x[i], acts);
        const double out = logistic ? 1.0 / (1.0 + std::exp(-z)) : z;
        net.backward(data.x[i], acts, out - targets[i]);
      }
      net.apply_adam(5e-3, 1e-5, end - start, ++step);
    }
  }
  return net;
}

// Sweeps every (cores, P-state, ways) slice of the paper platform, cores
// and ways including 0, at several loads: infer(), which every scalar MLP
// predict() runs, must return forward()'s output bit for bit on every row.
void expect_infer_matches_forward_on_slice_grid(const MachineSpec& machine,
                                                const StandardScaler& scaler,
                                                const detail::MlpNet& net) {
  std::vector<std::vector<double>> acts;
  for (double kqps : {0.0, 6.0, 23.5, 48.0}) {
    for (int c = 0; c <= machine.num_cores; ++c) {
      for (int f = 0; f <= machine.max_freq_level(); ++f) {
        for (int w = 0; w <= machine.llc_ways; ++w) {
          const FeatureRow x =
              scaler.transform({kqps, static_cast<double>(c),
                                machine.freq_at(f), static_cast<double>(w)});
          ASSERT_EQ(std::bit_cast<std::uint64_t>(net.infer(x.data())),
                    std::bit_cast<std::uint64_t>(net.forward(x, acts)))
              << "kqps " << kqps << " slice " << c << "C " << f << "F " << w
              << "W";
        }
      }
    }
  }
}

// Nets of the width the factory deploys, trained as a power regressor and
// as a QoS classifier.
TEST(BatchPredict, DeployedMlpScalarMatchesBatchOnSliceGrid) {
  const MachineSpec machine = MachineSpec::xeon_e5_2630_v4();
  const SliceData data = slice_training_data(machine);
  const auto regressor = trained_net(data, data.power, {16}, 150, false);
  const auto classifier = trained_net(data, data.label, {16}, 150, true);
  expect_infer_matches_forward_on_slice_grid(machine, data.scaler, regressor);
  expect_infer_matches_forward_on_slice_grid(machine, data.scaler,
                                             classifier);
}

// Nets wider than anything deployed, with two hidden layers of different
// widths: scalar inference has no width limit.
TEST(BatchPredict, WideMlpScalarMatchesBatchOnSliceGrid) {
  const MachineSpec machine = MachineSpec::xeon_e5_2630_v4();
  const SliceData data = slice_training_data(machine);
  const auto regressor = trained_net(data, data.power, {96, 24}, 5, false);
  const auto classifier = trained_net(data, data.label, {24, 130}, 5, true);
  expect_infer_matches_forward_on_slice_grid(machine, data.scaler, regressor);
  expect_infer_matches_forward_on_slice_grid(machine, data.scaler,
                                             classifier);
}

TEST(BatchPredict, EmptyBatchIsNoop) {
  auto model = make_regressor(ModelKind::kLinear);
  model->fit(random_regression_data(50, 15));
  EXPECT_TRUE(model->predict_batch(std::vector<FeatureRow>{}).empty());
}

TEST(BatchPredict, RaggedRowsRejected) {
  auto model = make_regressor(ModelKind::kLinear);
  model->fit(random_regression_data(50, 16));
  std::vector<FeatureRow> ragged = {{1.0, 2.0, 3.0, 4.0}, {1.0, 2.0}};
  EXPECT_THROW(model->predict_batch(ragged), std::invalid_argument);
}

// Every family rejects a row one feature shorter or one longer than the
// rows it was fitted on, whichever features its predict() reads.
TEST(BatchPredict, ArityMismatchRejected) {
  const auto train = random_regression_data(120, 17);
  const auto labels = random_labels(train.x);
  const FeatureRow shorter(kArity - 1, 1.0);
  const FeatureRow longer(kArity + 1, 1.0);
  for (ModelKind kind : regressor_kinds()) {
    auto model = make_regressor(kind);
    model->fit(train);
    EXPECT_THROW(model->predict(shorter), std::invalid_argument)
        << to_string(kind) << " regressor, shorter row";
    EXPECT_THROW(model->predict(longer), std::invalid_argument)
        << to_string(kind) << " regressor, longer row";
  }
  for (ModelKind kind : classifier_kinds()) {
    auto model = make_classifier(kind);
    model->fit(train.x, labels);
    EXPECT_THROW(model->predict(shorter), std::invalid_argument)
        << to_string(kind) << " classifier, shorter row";
    EXPECT_THROW(model->predict(longer), std::invalid_argument)
        << to_string(kind) << " classifier, longer row";
  }
}

TEST(BatchPredict, UnfittedRejected) {
  const FeatureRow row(kArity, 1.0);
  for (ModelKind kind : regressor_kinds()) {
    EXPECT_THROW(make_regressor(kind)->predict(row), std::logic_error)
        << to_string(kind) << " regressor";
  }
  for (ModelKind kind : classifier_kinds()) {
    EXPECT_THROW(make_classifier(kind)->predict(row), std::logic_error)
        << to_string(kind) << " classifier";
  }
}

}  // namespace
}  // namespace sturgeon::ml
