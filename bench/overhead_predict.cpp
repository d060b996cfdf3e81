// Section V-C overhead claim: "all models make a prediction within
// 0.04 ms". Times single-row inference for every model family on models
// trained over the memcached profiling dataset (google-benchmark).
//
// The *TableSweep benchmarks time one scalar predict() per slice of the
// whole slice grid (core::SliceGrid, every (cores, P-state, ways) slice of
// the machine) through the deployed memcached models. A Predictor pays one
// such sweep per BE model when it is built: it fills its BE power and IPC
// tables with one scalar predict() per slice.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.h"
#include "core/features.h"
#include "core/predictor.h"
#include "core/trainer.h"
#include "exp/model_registry.h"
#include "ml/factory.h"

using namespace sturgeon;

namespace {

const core::LsProfilingData& profiling_data() {
  static const core::LsProfilingData data = core::collect_ls_profiling(
      find_ls("memcached"), bench::trainer_config());
  return data;
}

void BM_RegressorPredict(benchmark::State& state) {
  const auto kind = static_cast<ml::ModelKind>(state.range(0));
  const auto& data = profiling_data();
  ml::DataSet train;
  for (std::size_t i = 0; i < data.x.size(); ++i) {
    train.add(data.x[i], data.power_w[i]);
  }
  auto model = ml::make_regressor(kind, 1);
  model->fit(train);
  const ml::FeatureRow row = data.x[data.x.size() / 2];
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->predict(row));
  }
  state.SetLabel(ml::to_string(kind) + " regression");
}

void BM_ClassifierPredict(benchmark::State& state) {
  const auto kind = static_cast<ml::ModelKind>(state.range(0));
  const auto& data = profiling_data();
  auto model = ml::make_classifier(kind, 1);
  model->fit(data.x, data.qos_ok);
  const ml::FeatureRow row = data.x[data.x.size() / 2];
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->predict(row));
  }
  state.SetLabel(ml::to_string(kind) + " classification");
}

/// The deployed memcached LS models and one feature row per grid slice
/// at 35% of peak load.
struct SweepFixture {
  core::LsModels models;
  std::vector<ml::FeatureRow> rows;

  static const SweepFixture& get() {
    static const SweepFixture f = [] {
      SweepFixture fx;
      const auto& ls = find_ls("memcached");
      const auto cfg = bench::trainer_config();
      fx.models = exp::ls_models_for(ls, cfg);
      const MachineSpec& machine = cfg.server.machine;
      const core::SliceGrid grid(machine);
      const double qps = 0.35 * ls.peak_qps;
      fx.rows.reserve(grid.size());
      for (std::size_t i = 0; i < grid.size(); ++i) {
        fx.rows.push_back(core::ls_features(machine, qps, grid.at(i)));
      }
      return fx;
    }();
    return f;
  }
};

/// One scalar predict() per grid slice.
template <typename Model>
void scalar_sweep(benchmark::State& state, const Model& model) {
  const auto& rows = SweepFixture::get().rows;
  for (auto _ : state) {
    double acc = 0.0;
    for (const auto& row : rows) acc += model.predict(row);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows.size()));
  state.SetLabel(model.name());
}

void BM_ScalarPredictTableSweep(benchmark::State& state) {
  scalar_sweep(state, *SweepFixture::get().models.power);
}

void BM_ScalarClassifyTableSweep(benchmark::State& state) {
  scalar_sweep(state, *SweepFixture::get().models.qos);
}

}  // namespace

BENCHMARK(BM_RegressorPredict)
    ->Arg(static_cast<int>(ml::ModelKind::kLinear))
    ->Arg(static_cast<int>(ml::ModelKind::kDecisionTree))
    ->Arg(static_cast<int>(ml::ModelKind::kKnn))
    ->Arg(static_cast<int>(ml::ModelKind::kSvm))
    ->Arg(static_cast<int>(ml::ModelKind::kMlp))
    ->Arg(static_cast<int>(ml::ModelKind::kRandomForest));

BENCHMARK(BM_ClassifierPredict)
    ->Arg(static_cast<int>(ml::ModelKind::kLinear))
    ->Arg(static_cast<int>(ml::ModelKind::kDecisionTree))
    ->Arg(static_cast<int>(ml::ModelKind::kKnn))
    ->Arg(static_cast<int>(ml::ModelKind::kSvm))
    ->Arg(static_cast<int>(ml::ModelKind::kMlp));

BENCHMARK(BM_ScalarPredictTableSweep)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScalarClassifyTableSweep)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
