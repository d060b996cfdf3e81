#include "core/config_search.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "fake_models.h"

namespace sturgeon::core {
namespace {

const MachineSpec m = MachineSpec::xeon_e5_2630_v4();

TEST(ConfigSearch, FindsJustEnoughLsAllocation) {
  // Rule: cores * GHz >= kQPS, ways >= 3. At 12 kQPS the minimum LS core
  // count at 2.2 GHz is ceil(12/2.2) = 6.
  const auto pred = testing::fake_predictor(m, 1.0, 3);
  ConfigSearch search(*pred, 200.0);  // budget loose enough for max F2
  const auto r = search.search(12000.0);
  ASSERT_TRUE(r.feasible);
  EXPECT_GE(r.best.ls.cores, 6);
  EXPECT_GE(r.best.ls.llc_ways, 3);
  // The fake QoS rule is exactly satisfied.
  EXPECT_GE(r.best.ls.cores * m.freq_at(r.best.ls.freq_level), 12.0 - 1e-9);
  EXPECT_TRUE(r.best.valid_for(m));
}

TEST(ConfigSearch, BeThroughputPrefersWideSliceWhenPowerAllows) {
  const auto pred = testing::fake_predictor(m, 1.0, 3);
  ConfigSearch search(*pred, 250.0);
  const auto r = search.search(6000.0);
  ASSERT_TRUE(r.feasible);
  // With a loose budget the first (BE-widest) candidate already runs at
  // the top P-state, so the sweep stops immediately (Section V-B).
  EXPECT_EQ(r.best.be.freq_level, m.max_freq_level());
  EXPECT_GE(r.best.be.cores, 14);
}

TEST(ConfigSearch, PowerBudgetCapsBeFrequency) {
  const auto pred = testing::fake_predictor(m, 1.0, 3);
  ConfigSearch tight(*pred, 110.0);
  const auto r = tight.search(12000.0);
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(r.predicted_power_w, 110.0 + 1e-9);
  ConfigSearch loose(*pred, 250.0);
  const auto r2 = loose.search(12000.0);
  EXPECT_GE(r2.predicted_throughput, r.predicted_throughput);
}

TEST(ConfigSearch, InfeasibleQosFallsBackToAllToLs) {
  // Demand so high even 20 cores at 2.2 GHz cannot serve it.
  const auto pred = testing::fake_predictor(m, 10.0, 3);
  ConfigSearch search(*pred, 200.0);
  const auto r = search.search(20000.0);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.best, Partition::all_to_ls(m));
  EXPECT_TRUE(r.candidates.empty());
}

TEST(ConfigSearch, InfeasiblePowerFallsBackToAllToLs) {
  const auto pred = testing::fake_predictor(m, 1.0, 3);
  ConfigSearch search(*pred, 25.0);  // below even the uncore + LS floor
  const auto r = search.search(6000.0);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.best, Partition::all_to_ls(m));
}

// power_fallback marks only the fallback the budget causes: QoS is
// reachable, and a candidate was turned down at the bottom BE P-state.
TEST(ConfigSearch, PowerFallbackMarksOnlyBudgetRejections) {
  const auto pred = testing::fake_predictor(m, 1.0, 3);
  const auto capped = ConfigSearch(*pred, 25.0).search(6000.0);
  EXPECT_FALSE(capped.feasible);
  EXPECT_TRUE(capped.power_fallback);
  EXPECT_FALSE(ConfigSearch(*pred, 200.0).search(6000.0).power_fallback);
  const auto overloaded = testing::fake_predictor(m, 10.0, 3);
  const auto no_qos = ConfigSearch(*overloaded, 25.0).search(20000.0);
  EXPECT_FALSE(no_qos.feasible);
  EXPECT_FALSE(no_qos.power_fallback);
  // QoS needs every way, so each candidate leaves the BE app no cache
  // before the budget is consulted.
  const auto all_ways = testing::fake_predictor(m, 1.0, m.llc_ways);
  const auto no_room = ConfigSearch(*all_ways, 25.0).search(6000.0);
  EXPECT_FALSE(no_room.feasible);
  EXPECT_FALSE(no_room.power_fallback);
}

TEST(ConfigSearch, MatchesExhaustiveReference) {
  const auto pred = testing::fake_predictor(m, 1.0, 3);
  ConfigSearch search(*pred, 130.0);
  for (double qps : {4000.0, 10000.0, 16000.0, 24000.0}) {
    const auto fast = search.search(qps);
    const auto full = search.exhaustive(qps);
    ASSERT_EQ(fast.feasible, full.feasible) << qps;
    if (fast.feasible) {
      // The pruned search must be within a few percent of the oracle.
      EXPECT_GE(fast.predicted_throughput,
                0.93 * full.predicted_throughput)
          << qps;
    }
  }
}

TEST(ConfigSearch, PrunedSearchIsFarCheaper) {
  const auto pred = testing::fake_predictor(m, 1.0, 3);
  ConfigSearch search(*pred, 130.0);
  const auto fast = search.search(12000.0);
  const auto full = search.exhaustive(12000.0);
  EXPECT_LT(fast.model_invocations * 10, full.model_invocations);
  // Paper: O(N log N) -- a few hundred model calls, not tens of thousands.
  EXPECT_LT(fast.model_invocations, 600u);
  EXPECT_GT(full.model_invocations, 4000u);
}

TEST(ConfigSearch, CandidatesAreAllFeasible) {
  const auto pred = testing::fake_predictor(m, 1.0, 3);
  ConfigSearch search(*pred, 130.0);
  const auto r = search.search(12000.0);
  for (const auto& cand : r.candidates) {
    EXPECT_TRUE(cand.partition.valid_for(m));
    EXPECT_LE(cand.predicted_power_w, 130.0 + 1e-9);
    EXPECT_TRUE(pred->ls_qos_ok(12000.0, cand.partition.ls));
  }
}

// Each search counts the model calls it causes itself, so searches racing
// on one shared predictor report exactly what a lone search reports. The
// TSan leg runs this with real concurrency: the fleet's worker threads
// share one predictor the same way.
TEST(ConfigSearch, ConcurrentSearchesCountOwnCalls) {
  const auto pred = testing::fake_predictor(m, 1.0, 3);
  ConfigSearch search(*pred, 130.0);
  const double loads[2] = {6000.0, 14000.0};
  std::uint64_t lone[2] = {};
  for (int i = 0; i < 2; ++i) {
    lone[i] = search.search(loads[i]).model_invocations;
    EXPECT_GT(lone[i], 0u);
  }
  std::uint64_t seen[2][50] = {};
  std::thread threads[2];
  for (int t = 0; t < 2; ++t) {
    threads[t] = std::thread([&, t] {
      for (auto& calls : seen[t]) {
        calls = search.search(loads[t]).model_invocations;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 2; ++t) {
    for (const std::uint64_t calls : seen[t]) EXPECT_EQ(calls, lone[t]);
  }
}

TEST(ConfigSearch, RejectsBadBudget) {
  const auto pred = testing::fake_predictor(m);
  EXPECT_THROW(ConfigSearch(*pred, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace sturgeon::core
