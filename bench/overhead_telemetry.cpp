// Observability-layer overhead: the telemetry hot paths must be cheap
// enough to leave the control loop's numbers intact.
//
//   - counter add / gauge set / histogram observe: the per-event registry
//     cost (relaxed atomics; no locks after creation). BM_CounterAdd's
//     4- and 8-thread rows make the threads contend on one counter,
//     which no runtime counter sees: every registry has one writer at a
//     time;
//   - span open+close, against a disabled tracer (the default for every
//     policy) and an enabled one;
//   - BM_SturgeonSearchTraced vs the untraced twin from
//     overhead_search: the end-to-end proof that instrumenting the
//     search adds < 5% (one candidate_eval span per search against a
//     ~50 us search body).
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_common.h"
#include "core/config_search.h"
#include "exp/model_registry.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

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

void BM_CounterAdd(benchmark::State& state) {
  static telemetry::MetricsRegistry registry;
  telemetry::Counter& c = registry.counter("bench.counter");
  for (auto _ : state) {
    c.inc();
  }
  if (state.thread_index() == 0) {
    benchmark::DoNotOptimize(c.value());
  }
}

void BM_GaugeSet(benchmark::State& state) {
  telemetry::MetricsRegistry registry;
  telemetry::Gauge& g = registry.gauge("bench.gauge");
  double v = 0.0;
  for (auto _ : state) {
    g.set(v += 1.0);
  }
  benchmark::DoNotOptimize(g.value());
}

void BM_HistogramObserve(benchmark::State& state) {
  telemetry::MetricsRegistry registry;
  telemetry::Histogram& h = registry.duration_histogram("bench.hist");
  double v = 0.0;
  for (auto _ : state) {
    v = v < 4096.0 ? v + 1.0 : 0.0;
    h.observe(v);
  }
  benchmark::DoNotOptimize(h.snapshot().count);
}

void BM_SpanOpenClose(benchmark::State& state) {
  telemetry::Tracer tracer(/*enabled=*/true);
  for (auto _ : state) {
    telemetry::Span span = tracer.start_span("bench");
    span.attr("k", 1);
    if (tracer.finished_count() > (1u << 20)) {
      state.PauseTiming();
      tracer.clear();
      state.ResumeTiming();
    }
  }
}

void BM_SpanOpenCloseDisabled(benchmark::State& state) {
  telemetry::Tracer tracer(/*enabled=*/false);  // every policy's default
  for (auto _ : state) {
    telemetry::Span span = tracer.start_span("bench");
    span.attr("k", 1);
  }
  benchmark::DoNotOptimize(tracer.finished_count());
}

/// Untraced twin of BM_SturgeonSearchTraced (same fixture and body as
/// overhead_search's BM_SturgeonSearch; kept here so the pair is always
/// compiled and run together).
void BM_SturgeonSearchUntraced(benchmark::State& state) {
  const auto& fx = Fixture::get();
  core::ConfigSearch search(*fx.predictor, fx.budget);
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.search(fx.qps).best);
  }
}

void BM_SturgeonSearchTraced(benchmark::State& state) {
  const auto& fx = Fixture::get();
  core::ConfigSearch search(*fx.predictor, fx.budget);
  telemetry::MetricsRegistry registry;
  telemetry::Tracer tracer(/*enabled=*/true);
  tracer.bind_registry(&registry);
  search.set_tracer(&tracer);
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.search(fx.qps).best);
    if (tracer.finished_count() > (1u << 18)) {
      state.PauseTiming();
      tracer.clear();
      state.ResumeTiming();
    }
  }
}

}  // namespace

BENCHMARK(BM_CounterAdd)->Threads(1)->Threads(4)->Threads(8);
BENCHMARK(BM_GaugeSet);
BENCHMARK(BM_HistogramObserve);
BENCHMARK(BM_SpanOpenClose);
BENCHMARK(BM_SpanOpenCloseDisabled);
BENCHMARK(BM_SturgeonSearchUntraced)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SturgeonSearchTraced)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
