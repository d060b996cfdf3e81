// Property sweep of the configuration search across loads and fake-rule
// parameterizations: feasibility and optimality invariants of Section
// V-B's algorithm that must hold no matter where the QoS boundary sits.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/config_search.h"
#include "fake_models.h"

namespace sturgeon::core {
namespace {

const MachineSpec m = MachineSpec::xeon_e5_2630_v4();

// gtest names each case by the parameter's raw bytes, so the struct must
// have no padding: name_tag fills the four bytes after min_ways, keeping
// every byte initialized and every case name the same from build to build.
// It is zero except in two cases, where it holds the bytes those cases'
// names have always carried there, so no case changes its name.
struct SearchCase {
  double demand_per_kqps;
  int min_ways;
  std::uint32_t name_tag;
  double budget_w;
  double qps;
};
static_assert(sizeof(SearchCase) == 32, "SearchCase must have no padding");

class SearchPropertyTest : public ::testing::TestWithParam<SearchCase> {};

TEST_P(SearchPropertyTest, ResultInvariants) {
  const auto& c = GetParam();
  const auto pred = testing::fake_predictor(m, c.demand_per_kqps,
                                            c.min_ways);
  ConfigSearch search(*pred, c.budget_w);
  const auto r = search.search(c.qps);

  if (!r.feasible) {
    EXPECT_EQ(r.best, Partition::all_to_ls(m));
    return;
  }
  // 1. The winning partition is expressible and QoS-positive.
  EXPECT_TRUE(r.best.valid_for(m));
  EXPECT_TRUE(pred->ls_qos_ok(c.qps, r.best.ls));
  // 2. Power within budget.
  EXPECT_LE(pred->total_power_w(c.qps, r.best), c.budget_w + 1e-9);
  EXPECT_LE(r.predicted_power_w, c.budget_w + 1e-9);
  // 3. The winner maximizes predicted throughput over the candidates.
  for (const auto& cand : r.candidates) {
    EXPECT_LE(cand.predicted_throughput, r.predicted_throughput + 1e-9);
  }
  // 4. The candidate sweep starts at the minimal QoS-feasible core count
  //    (power-infeasible candidates may be skipped, so the first listed
  //    candidate is >= that minimum, never below it).
  int min_cores = m.num_cores;
  for (int cores = 1; cores <= m.num_cores; ++cores) {
    if (pred->ls_qos_ok(c.qps,
                        AppSlice{cores, m.max_freq_level(), m.llc_ways})) {
      min_cores = cores;
      break;
    }
  }
  EXPECT_GE(r.candidates.front().partition.ls.cores, min_cores);
  // 5. Deterministic.
  const auto r2 = search.search(c.qps);
  EXPECT_EQ(r.best, r2.best);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SearchPropertyTest,
    ::testing::Values(
        // Vary boundary position, ways floor, budget tightness, load.
        SearchCase{1.0, 3, 0x7F37, 200.0, 5000.0},
        SearchCase{1.0, 3, 0, 200.0, 20000.0},
        SearchCase{1.0, 3, 0, 110.0, 20000.0},
        SearchCase{1.0, 8, 0, 130.0, 12000.0},
        SearchCase{0.5, 3, 0, 130.0, 30000.0},
        SearchCase{2.0, 3, 0, 150.0, 15000.0},
        SearchCase{2.0, 12, 0x7, 150.0, 8000.0},
        SearchCase{1.5, 1, 0, 100.0, 10000.0},
        SearchCase{1.0, 3, 0, 90.0, 35000.0},
        SearchCase{3.0, 5, 0, 160.0, 14000.0}));

}  // namespace
}  // namespace sturgeon::core
