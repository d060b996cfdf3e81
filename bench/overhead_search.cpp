// Section VII-E overhead reproduction: the configuration-search cost.
//
// The paper reports ~6.4 s for exhaustive search over the 40000-point
// space (0.04 ms per model call x 4 models) versus <= ~120 ms for
// Sturgeon's binary search (at most (16 + 11*19) x 4 predictions), and
// 3 x 4 predictions (~0.48 ms) for one balancer invocation. This bench
// times both search strategies on the trained memcached+raytrace
// predictor and reports model invocations per search, so the paper's
// O(N^4) vs O(N log N) gap is visible in both time and calls. A QoS
// question the predictor's certified table answers (core/qos_table.h)
// runs no model and is not counted; the search still asks O(N log N)
// of them.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_common.h"
#include "core/balancer.h"
#include "core/config_search.h"
#include "exp/model_registry.h"

using namespace sturgeon;

namespace {

struct Fixture {
  std::shared_ptr<const core::Predictor> predictor;
  double budget = 0.0;
  double qps = 0.0;

  static const Fixture& get() {
    static const Fixture f = [] {
      Fixture fx;
      const auto& ls = find_ls("memcached");
      const auto& be = find_be("rt");
      fx.predictor = exp::predictor_for(ls, be, bench::trainer_config());
      sim::SimulatedServer probe(ls, be, 7);
      fx.budget = probe.power_budget_w();
      fx.qps = 0.35 * ls.peak_qps;
      return fx;
    }();
    return f;
  }
};

void BM_SturgeonSearch(benchmark::State& state) {
  const auto& fx = Fixture::get();
  core::ConfigSearch search(*fx.predictor, fx.budget);
  std::uint64_t invocations = 0, searches = 0;
  for (auto _ : state) {
    const auto result = search.search(fx.qps);
    benchmark::DoNotOptimize(result.best);
    invocations += result.model_invocations;
    ++searches;
  }
  state.counters["model_calls_per_search"] =
      static_cast<double>(invocations) / static_cast<double>(searches);
}

void BM_ExhaustiveSearch(benchmark::State& state) {
  const auto& fx = Fixture::get();
  core::ConfigSearch search(*fx.predictor, fx.budget);
  std::uint64_t invocations = 0, searches = 0;
  for (auto _ : state) {
    const auto result = search.exhaustive(fx.qps);
    benchmark::DoNotOptimize(result.best);
    invocations += result.model_invocations;
    ++searches;
  }
  state.counters["model_calls_per_search"] =
      static_cast<double>(invocations) / static_cast<double>(searches);
}

void BM_BalancerInvocation(benchmark::State& state) {
  const auto& fx = Fixture::get();
  core::ResourceBalancer balancer(*fx.predictor, fx.budget);
  Partition p;
  p.ls = AppSlice{6, 8, 6};
  p.be = AppSlice{14, 8, 14};
  // Single-threaded, so the shared predictor's counter is this loop's.
  const std::uint64_t calls_before = fx.predictor->model_invocations();
  std::uint64_t steps = 0;
  for (auto _ : state) {
    balancer.arm(p);
    benchmark::DoNotOptimize(balancer.step(/*slack=*/0.02, fx.qps, p));
    ++steps;
  }
  state.counters["model_calls_per_step"] =
      static_cast<double>(fx.predictor->model_invocations() - calls_before) /
      static_cast<double>(steps);
}

}  // namespace

BENCHMARK(BM_SturgeonSearch)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExhaustiveSearch)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BalancerInvocation)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
