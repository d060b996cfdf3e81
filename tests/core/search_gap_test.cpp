// How far Sturgeon's binary search (ConfigSearch::search, paper Section
// V-B) lands from the exhaustive optimum (ConfigSearch::exhaustive) over
// the same predictor.
//
// With the analytic fake models every rule is monotone, so the search is
// exact: on randomized machines, budgets and loads it must agree with the
// exhaustive sweep on feasibility and, when feasible, on the predicted BE
// throughput bit for bit.
//
// With trained models the monotonicity the search relies on holds only
// approximately, so the search may give up throughput. Two invariants
// still hold everywhere: the search is never feasible where the
// exhaustive sweep is not, and it never predicts more throughput. At the
// natural budget the relative gap stays under a measured bound. Each
// budget band prints its gap distribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/config_search.h"
#include "core/predictor.h"
#include "core/trainer.h"
#include "fake_models.h"
#include "sim/server.h"
#include "small_config.h"
#include "util/rng.h"

namespace sturgeon::core {
namespace {

using testing::small_config;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

MachineSpec random_machine(Rng& rng) {
  MachineSpec m;
  m.num_cores = rng.uniform_int(8, 32);
  const int levels = rng.uniform_int(6, 14);
  const double base = rng.uniform(0.8, 1.4);
  const double step = rng.uniform(0.1, 0.2);
  m.freq_ghz.clear();
  for (int i = 0; i < levels; ++i) m.freq_ghz.push_back(base + step * i);
  m.llc_ways = rng.uniform_int(8, 24);
  return m;
}

TEST(SearchGap, FakeRulesSearchIsExactOnRandomMachines) {
  Rng rng(0x9a9);
  int feasible = 0;
  int infeasible = 0;
  for (int i = 0; i < 400; ++i) {
    const MachineSpec m = random_machine(rng);
    const double demand = rng.uniform(0.3, 3.0);  // core-GHz per kQPS
    const int min_ways = rng.uniform_int(1, m.llc_ways / 2 + 1);
    const double budget = rng.uniform(40.0, 220.0);
    // Loads from 5% to 110% of what the whole machine can serve.
    const double capacity_kqps =
        static_cast<double>(m.num_cores) * m.max_freq_ghz() / demand;
    const double qps = 1000.0 * rng.uniform(0.05, 1.1) * capacity_kqps;

    const Predictor predictor(m, testing::fake_models(demand, min_ways));
    const ConfigSearch search(predictor, budget);
    const SearchResult fast = search.search(qps);
    const SearchResult full = search.exhaustive(qps);
    const std::string at = "case " + std::to_string(i) + ": " +
                           std::to_string(m.num_cores) + "C/" +
                           std::to_string(m.num_freq_levels()) + "F/" +
                           std::to_string(m.llc_ways) + "L, qps " +
                           std::to_string(qps) + ", budget " +
                           std::to_string(budget);
    ASSERT_EQ(fast.feasible, full.feasible) << at;
    if (full.feasible) {
      ++feasible;
      EXPECT_EQ(bits(fast.predicted_throughput),
                bits(full.predicted_throughput))
          << at;
    } else {
      ++infeasible;
      EXPECT_EQ(fast.best, Partition::all_to_ls(m)) << at;
    }
  }
  std::fprintf(stdout,
               "fake rules: %d cases, %d feasible (all exact), %d infeasible "
               "on both sides\n",
               feasible + infeasible, feasible, infeasible);
  // The draws must exercise both outcomes.
  EXPECT_GT(feasible, 100);
  EXPECT_GT(infeasible, 20);
}

struct BandStats {
  int cases = 0;
  int both_infeasible = 0;
  int fallbacks = 0;  ///< exhaustive co-locates, search keeps all-to-LS
  std::vector<double> gaps;  ///< relative gap where both co-locate

  double gap_at(double q) const {
    std::vector<double> sorted = gaps;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::max<std::size_t>(rank, 1) - 1];
  }
};

/// `draws` searches at budgets uniform in [lo, hi] x the natural budget
/// and loads uniform in 5-95% of peak, checking both invariants.
BandStats sweep_band(const Predictor& predictor, double natural_budget_w,
                     double peak_qps, double lo, double hi, int draws,
                     std::uint64_t seed) {
  const MachineSpec& m = predictor.machine();
  Rng rng(seed);
  BandStats s;
  for (int k = 0; k < draws; ++k) {
    const double factor = lo == hi ? lo : rng.uniform(lo, hi);
    const double qps = rng.uniform(0.05, 0.95) * peak_qps;
    const ConfigSearch search(predictor, factor * natural_budget_w);
    const SearchResult fast = search.search(qps);
    const SearchResult full = search.exhaustive(qps);
    const std::string at = "budget x" + std::to_string(factor) + ", qps " +
                           std::to_string(qps);
    ++s.cases;
    EXPECT_FALSE(fast.feasible && !full.feasible)
        << "search feasible where exhaustive is not at " << at;
    if (!full.feasible) {
      ++s.both_infeasible;
      continue;
    }
    if (!fast.feasible) {
      EXPECT_EQ(fast.best, Partition::all_to_ls(m)) << at;
      ++s.fallbacks;
      continue;
    }
    EXPECT_LE(fast.predicted_throughput, full.predicted_throughput) << at;
    s.gaps.push_back(
        (full.predicted_throughput - fast.predicted_throughput) /
        full.predicted_throughput);
  }
  return s;
}

void print_band(const char* band, const BandStats& s) {
  std::fprintf(stdout,
               "band %s: %d cases, %d infeasible on both sides, %d "
               "fallbacks to all-to-LS, %zu co-located",
               band, s.cases, s.both_infeasible, s.fallbacks, s.gaps.size());
  if (!s.gaps.empty()) {
    std::fprintf(stdout, "; gap median %.2f%%, p90 %.2f%%, max %.2f%%",
                 100.0 * s.gap_at(0.5), 100.0 * s.gap_at(0.9),
                 100.0 * s.gap_at(1.0));
  }
  std::fprintf(stdout, "\n");
}

TEST(SearchGap, TrainedPairSearchNeverBeatsExhaustiveAndStaysNearIt) {
  const LsProfile& ls = find_ls("memcached");
  const BeProfile& be = find_be("rt");
  const Predictor predictor(MachineSpec::xeon_e5_2630_v4(),
                            train_for_pair(ls, be, small_config()));
  const double natural = sim::SimulatedServer(ls, be, 7).power_budget_w();
  constexpr int kDraws = 250;

  const BandStats at_natural =
      sweep_band(predictor, natural, ls.peak_qps, 1.0, 1.0, kDraws, 0x6a1);
  print_band("1.00", at_natural);
  print_band("0.85-1.00", sweep_band(predictor, natural, ls.peak_qps, 0.85,
                                     1.0, kDraws, 0x6a2));
  print_band("0.70-0.85", sweep_band(predictor, natural, ls.peak_qps, 0.70,
                                     0.85, kDraws, 0x6a3));
  print_band("0.55-0.70", sweep_band(predictor, natural, ls.peak_qps, 0.55,
                                     0.70, kDraws, 0x6a4));

  // At the natural budget the search co-locates wherever the exhaustive
  // sweep does, and gives up at most 5% of its predicted throughput (the
  // measured maximum over these draws is 4.24%).
  ASSERT_FALSE(at_natural.gaps.empty());
  EXPECT_EQ(at_natural.fallbacks, 0);
  EXPECT_LE(at_natural.gap_at(1.0), 0.05);
}

}  // namespace
}  // namespace sturgeon::core
