// Prediction cache semantics: hit/miss/fill accounting, model-swap
// invalidation, and the bit-identity contract -- every search flavor must
// return exactly the same SearchResult with the cache on as off.
#include "core/prediction_cache.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/config_search.h"
#include "core/predictor.h"
#include "fake_models.h"
#include "util/thread_pool.h"

namespace sturgeon::core {
namespace {

const MachineSpec m = MachineSpec::xeon_e5_2630_v4();

std::unique_ptr<Predictor> cached_predictor(double demand = 1.0,
                                            int min_ways = 3) {
  auto p = std::make_unique<Predictor>(m, testing::fake_models(demand,
                                                               min_ways));
  p->enable_cache();
  return p;
}

std::size_t expected_table_size() {
  return static_cast<std::size_t>(m.num_cores + 1) *
         static_cast<std::size_t>(m.num_freq_levels()) *
         static_cast<std::size_t>(m.llc_ways + 1);
}

void expect_same_result(const SearchResult& a, const SearchResult& b,
                        const char* what) {
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.best, b.best) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.predicted_throughput),
            std::bit_cast<std::uint64_t>(b.predicted_throughput))
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.predicted_power_w),
            std::bit_cast<std::uint64_t>(b.predicted_power_w))
      << what;
  ASSERT_EQ(a.candidates.size(), b.candidates.size()) << what;
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].partition, b.candidates[i].partition) << what;
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(a.candidates[i].predicted_throughput),
        std::bit_cast<std::uint64_t>(b.candidates[i].predicted_throughput))
        << what;
  }
}

TEST(PredictionCache, SliceIndexRoundTrips) {
  PredictionCache cache(m, {});
  EXPECT_EQ(cache.table_size(), expected_table_size());
  for (std::size_t i = 0; i < cache.table_size(); ++i) {
    const AppSlice s = cache.slice_at(i);
    EXPECT_EQ(cache.slice_index(s), i);
  }
}

TEST(PredictionCache, MissFillsWholeTableThenHits) {
  auto p = cached_predictor();
  const AppSlice a{4, 6, 8};
  const AppSlice b{10, 3, 12};

  EXPECT_TRUE(p->cache_enabled());
  p->ls_qos_ok(9000.0, a);
  auto s = p->cache_stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.fills, 1u);
  EXPECT_EQ(s.hits, 0u);
  // The fill swept the whole table through the ls_qos model.
  EXPECT_EQ(p->model_call_breakdown().ls_qos, expected_table_size());

  p->ls_qos_ok(9000.0, b);
  s = p->cache_stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  // Hits are array lookups: no new model invocations.
  EXPECT_EQ(p->model_call_breakdown().ls_qos, expected_table_size());
}

TEST(PredictionCache, SameBucketDifferentQpsRefills) {
  auto p = cached_predictor();
  const AppSlice a{4, 6, 8};
  p->ls_qos_ok(9000.0, a);
  // 9001 lands in the same 50-QPS bucket but is a different exact load:
  // bit-identity requires a refill, not a stale-table hit.
  p->ls_qos_ok(9001.0, a);
  const auto s = p->cache_stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.fills, 2u);
  EXPECT_EQ(s.hits, 0u);
}

TEST(PredictionCache, BeTablesAreLoadIndependent) {
  auto p = cached_predictor();
  const AppSlice be{8, 5, 10};
  p->be_ipc(be);
  p->be_ipc(AppSlice{3, 2, 4});
  auto s = p->cache_stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  // cores == 0 short-circuits before the cache.
  EXPECT_EQ(p->be_ipc(AppSlice{0, 5, 10}), 0.0);
  EXPECT_EQ(p->be_power_w(AppSlice{0, 5, 10}), 0.0);
  s = p->cache_stats();
  EXPECT_EQ(s.hits + s.misses, 2u);
}

TEST(PredictionCache, CachedValuesBitIdenticalToUncached) {
  Predictor uncached(m, testing::fake_models());
  auto cached = cached_predictor();
  for (double qps : {4000.0, 9000.0, 15000.0}) {
    for (int cores = 1; cores <= m.num_cores; cores += 3) {
      for (int f = 0; f <= m.max_freq_level(); f += 2) {
        for (int w = 1; w <= m.llc_ways; w += 4) {
          const AppSlice s{cores, f, w};
          EXPECT_EQ(cached->ls_qos_ok(qps, s), uncached.ls_qos_ok(qps, s));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(cached->ls_power_w(qps, s)),
                    std::bit_cast<std::uint64_t>(uncached.ls_power_w(qps, s)));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(cached->be_ipc(s)),
                    std::bit_cast<std::uint64_t>(uncached.be_ipc(s)));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(cached->be_power_w(s)),
                    std::bit_cast<std::uint64_t>(uncached.be_power_w(s)));
        }
      }
    }
  }
}

TEST(PredictionCache, SwapModelsInvalidates) {
  auto p = cached_predictor(/*demand=*/1.0);
  const AppSlice probe{2, m.max_freq_level(), m.llc_ways};
  // Demand 1.0: 2 cores * 2.2 GHz serves 4 kQPS.
  EXPECT_TRUE(p->ls_qos_ok(4000.0, probe));
  const auto before = p->cache_stats();
  EXPECT_EQ(before.generation, 0u);

  // Much higher demand: the same slice now fails. A stale table would
  // still answer true.
  p->swap_models(testing::fake_models(/*demand_per_kqps=*/5.0));
  EXPECT_FALSE(p->ls_qos_ok(4000.0, probe));
  const auto after = p->cache_stats();
  EXPECT_EQ(after.generation, 1u);
  EXPECT_EQ(after.fills, before.fills + 1);
}

TEST(PredictionCache, DisableCacheRestoresScalarPath) {
  auto p = cached_predictor();
  p->ls_qos_ok(9000.0, AppSlice{4, 6, 8});
  p->disable_cache();
  EXPECT_FALSE(p->cache_enabled());
  const auto calls = p->model_invocations();
  p->ls_qos_ok(9000.0, AppSlice{4, 6, 8});
  EXPECT_EQ(p->model_invocations(), calls + 1);
  EXPECT_EQ(p->cache_stats().hits + p->cache_stats().misses, 0u);
}

TEST(PredictionCache, AllSearchFlavorsBitIdenticalCachedVsUncached) {
  Predictor uncached(m, testing::fake_models());
  auto cached = cached_predictor();
  const double budget = 140.0;
  ConfigSearch su(uncached, budget);
  ConfigSearch sc(*cached, budget);
  ThreadPool pool(4);
  for (double qps : {5000.0, 12000.0, 20000.0}) {
    expect_same_result(su.search(qps), sc.search(qps), "search");
    expect_same_result(su.search_parallel(qps, pool),
                       sc.search_parallel(qps, pool), "search_parallel");
    expect_same_result(su.exhaustive(qps), sc.exhaustive(qps), "exhaustive");
  }
}

TEST(PredictionCache, SteadyStateSearchUsesNoModelCalls) {
  auto cached = cached_predictor();
  ConfigSearch search(*cached, 140.0);
  const auto cold = search.search(12000.0);
  EXPECT_GT(cold.model_invocations, 0u);  // fills count their sweep
  const auto warm = search.search(12000.0);
  EXPECT_EQ(warm.model_invocations, 0u);
  expect_same_result(cold, warm, "steady state");
}

// A cold search counts exactly the two LS tables it filled; the BE
// tables the cache copies from the predictor run no model.
TEST(PredictionCache, ColdSearchCountsItsFills) {
  auto cached = cached_predictor();
  ConfigSearch search(*cached, 140.0);
  const auto cold = search.search(12000.0);
  EXPECT_EQ(cached->cache_stats().fills, 4u);  // ls_qos, ls_power, 2 BE
  EXPECT_EQ(cold.model_invocations, 2 * expected_table_size());
}

// TSan target: many workers race on the shard mutexes and published
// tables while the pool evaluates candidates concurrently.
TEST(PredictionCache, ConcurrentParallelSearchIsRaceFree) {
  auto cached = cached_predictor();
  ConfigSearch search(*cached, 140.0);
  ThreadPool pool(8);
  SearchResult first;
  for (int round = 0; round < 4; ++round) {
    // Alternate loads so rounds mix cold fills with warm hits.
    const double qps = round % 2 == 0 ? 12000.0 : 7000.0;
    const auto r = search.search_parallel(qps, pool);
    if (round == 0) {
      first = r;
    } else if (round % 2 == 0) {
      expect_same_result(first, r, "concurrent repeat");
    }
  }
  const auto s = cached->cache_stats();
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.fills, 0u);
}

}  // namespace
}  // namespace sturgeon::core
