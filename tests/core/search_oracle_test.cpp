// Bit-identity oracles for the predictor's answer paths. A test-local
// reference search asks one question per step -- QoS of the LS slice,
// total power of the whole partition, BE throughput -- and recomputes
// total power at every step of every binary search. It runs against two
// oracles: the trained models evaluated directly with one scalar
// predict() per query, and the Predictor's own per-query API
// (ls_qos_ok / total_power_w / be_throughput). ConfigSearch::search,
// ConfigSearch::exhaustive and ResourceBalancer::step must reproduce both
// bit for bit: whatever the runtime hoists or tabulates, it may never
// change an answer. On the trained pair the predictor answers QoS from
// its certified table; those tests also check that the table, not the
// model fallback, answered the QoS questions.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/balancer.h"
#include "core/config_search.h"
#include "core/features.h"
#include "core/predictor.h"
#include "core/trainer.h"
#include "fake_models.h"
#include "sim/server.h"
#include "small_config.h"
#include "util/rng.h"

namespace sturgeon::core {
namespace {

using testing::small_config;

const MachineSpec m = MachineSpec::xeon_e5_2630_v4();

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The models' answers, one scalar predict() per query.
struct ScalarModels {
  MachineSpec machine;
  TrainedModels models;

  bool qos_ok(double qps, const AppSlice& s) const {
    return models.ls_qos->predict(ls_features(machine, qps, s)) == 1;
  }
  double ls_power(double qps, const AppSlice& s) const {
    return models.ls_power->predict(ls_features(machine, qps, s));
  }
  double be_power(const AppSlice& s) const {
    if (s.cores == 0) return 0.0;
    return std::max(0.0, models.be_power->predict(
                             be_features(machine, kNativeInputLevel, s)));
  }
  double be_ipc(const AppSlice& s) const {
    if (s.cores == 0) return 0.0;
    return std::max(0.0, models.be_ipc->predict(
                             be_features(machine, kNativeInputLevel, s)));
  }
  double be_throughput(const AppSlice& s) const {
    if (s.cores == 0) return 0.0;
    return be_ipc(s) * static_cast<double>(s.cores) *
           machine.freq_at(s.freq_level);
  }
  double total_power_w(double qps, const Partition& p) const {
    return ls_power(qps, p.ls) + be_power(p.be);
  }
};

/// The Predictor's per-query API: every call is one independent question.
struct PredictorQueries {
  const Predictor& predictor;

  bool qos_ok(double qps, const AppSlice& s) const {
    return predictor.ls_qos_ok(qps, s);
  }
  double be_throughput(const AppSlice& s) const {
    return predictor.be_throughput(s);
  }
  double total_power_w(double qps, const Partition& p) const {
    return predictor.total_power_w(qps, p);
  }
};

/// Forwards to `inner` and tallies how the predictor answers each QoS
/// question asked: from its table, or with a model call. The reference
/// searches ask the runtime's QoS questions in the runtime's order, so
/// the tally is the table's share of the runtime's QoS queries.
template <typename Oracle>
struct QosTally {
  const Oracle& inner;
  const Predictor& predictor;
  mutable std::uint64_t queries = 0;
  mutable std::uint64_t model_calls = 0;

  bool qos_ok(double qps, const AppSlice& s) const {
    ++queries;
    predictor.ls_qos_ok(qps, s, &model_calls);
    return inner.qos_ok(qps, s);
  }
  double be_throughput(const AppSlice& s) const {
    return inner.be_throughput(s);
  }
  double total_power_w(double qps, const Partition& p) const {
    return inner.total_power_w(qps, p);
  }

  /// At least 99% of the QoS queries came from the table.
  void expect_table_answered_most() const {
    ASSERT_NE(predictor.qos_table(), nullptr);
    ASSERT_GT(queries, 0u);
    const double answered =
        1.0 - static_cast<double>(model_calls) / static_cast<double>(queries);
    std::fprintf(stdout, "QoS table answered %.4f%% of %llu queries\n",
                100.0 * answered, static_cast<unsigned long long>(queries));
    EXPECT_GE(answered, 0.99);
  }
};

/// Smallest x in [lo, hi] with ok(x), probing exactly as the search's
/// min_ls_* helpers do (hi is assumed feasible).
template <typename Ok>
int lowest_feasible(int lo, int hi, Ok&& ok) {
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (ok(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

/// Sturgeon's Section V-B search with total power recomputed at every
/// step of the F2 binary search.
template <typename Oracle>
SearchResult reference_search(const Oracle& ref, double qps, double budget) {
  SearchResult r;
  r.best = Partition::all_to_ls(m);
  AppSlice probe{m.num_cores, m.max_freq_level(), m.llc_ways};
  if (!ref.qos_ok(qps, probe)) return r;
  const int c1_min = lowest_feasible(1, m.num_cores, [&](int c) {
    probe.cores = c;
    return ref.qos_ok(qps, probe);
  });
  for (int c1 = c1_min; c1 < m.num_cores; ++c1) {
    AppSlice ls{c1, m.max_freq_level(), m.llc_ways};
    ls.llc_ways = lowest_feasible(1, m.llc_ways, [&](int w) {
      AppSlice s = ls;
      s.llc_ways = w;
      return ref.qos_ok(qps, s);
    });
    if (ls.llc_ways >= m.llc_ways) continue;
    ls.freq_level = lowest_feasible(0, m.max_freq_level(), [&](int f) {
      AppSlice s = ls;
      s.freq_level = f;
      return ref.qos_ok(qps, s);
    });
    AppSlice be = Allocation::complement(m, ls, 0);
    if (be.cores < 1 || be.llc_ways < 1) continue;
    const auto fits = [&](int level) {
      AppSlice b = be;
      b.freq_level = level;
      return ref.total_power_w(qps, Partition{ls, b}) <= budget;
    };
    if (!fits(0)) continue;
    int lo = 0, hi = m.max_freq_level();
    while (lo < hi) {
      const int mid = lo + (hi - lo + 1) / 2;
      if (fits(mid)) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    be.freq_level = lo;
    Candidate cand;
    cand.partition = Partition{ls, be};
    cand.predicted_throughput = ref.be_throughput(be);
    cand.predicted_power_w = ref.total_power_w(qps, cand.partition);
    r.candidates.push_back(cand);
    if (!r.feasible || cand.predicted_throughput > r.predicted_throughput) {
      r.feasible = true;
      r.best = cand.partition;
      r.predicted_throughput = cand.predicted_throughput;
      r.predicted_power_w = cand.predicted_power_w;
    }
    if (be.freq_level == m.max_freq_level()) break;
  }
  return r;
}

/// The exhaustive O(N^4) sweep, total power recomputed for every probe.
template <typename Oracle>
SearchResult reference_exhaustive(const Oracle& ref, double qps,
                                  double budget) {
  SearchResult r;
  r.best = Partition::all_to_ls(m);
  for (int c1 = 1; c1 < m.num_cores; ++c1) {
    for (int f1 = 0; f1 <= m.max_freq_level(); ++f1) {
      for (int l1 = 1; l1 < m.llc_ways; ++l1) {
        const AppSlice ls{c1, f1, l1};
        if (!ref.qos_ok(qps, ls)) continue;
        for (int f2 = m.max_freq_level(); f2 >= 0; --f2) {
          const Partition p{ls, Allocation::complement(m, ls, f2)};
          const double power = ref.total_power_w(qps, p);
          if (power > budget) continue;
          const double thr = ref.be_throughput(p.be);
          if (!r.feasible || thr > r.predicted_throughput) {
            r.feasible = true;
            r.best = p;
            r.predicted_throughput = thr;
            r.predicted_power_w = power;
          }
          break;
        }
      }
    }
  }
  return r;
}

void expect_same_search(const SearchResult& want, const SearchResult& got,
                        const std::string& what) {
  EXPECT_EQ(want.feasible, got.feasible) << what;
  EXPECT_EQ(want.best, got.best) << what;
  EXPECT_EQ(bits(want.predicted_throughput), bits(got.predicted_throughput))
      << what;
  EXPECT_EQ(bits(want.predicted_power_w), bits(got.predicted_power_w))
      << what;
  ASSERT_EQ(want.candidates.size(), got.candidates.size()) << what;
  for (std::size_t i = 0; i < want.candidates.size(); ++i) {
    const Candidate& a = want.candidates[i];
    const Candidate& b = got.candidates[i];
    EXPECT_EQ(a.partition, b.partition) << what << " candidate " << i;
    EXPECT_EQ(bits(a.predicted_throughput), bits(b.predicted_throughput))
        << what << " candidate " << i;
    EXPECT_EQ(bits(a.predicted_power_w), bits(b.predicted_power_w))
        << what << " candidate " << i;
  }
}

/// Expected first harvest of a freshly armed balancer (Algorithm 2 with
/// the default 0.5 granularity): the cores / ways / power move with the
/// highest predicted BE throughput that fits the budget.
template <typename Oracle>
std::optional<Partition> reference_harvest(const Oracle& ref, double qps,
                                           double budget,
                                           const Partition& current,
                                           int* amount_out) {
  const auto amount = [](double holding) {
    return std::max(1, static_cast<int>(std::lround(0.5 * holding)));
  };
  const int amounts[3] = {amount(current.be.cores),
                          amount(current.be.llc_ways),
                          amount(current.be.freq_level + 1)};
  std::optional<Partition> best;
  double best_thr = -1.0;
  for (int r = 0; r < 3; ++r) {
    const int a = amounts[r];
    Partition p = current;
    if (r == 0) {
      const int take = std::min(a, p.be.cores - 1);
      if (take < 1) continue;
      p.be.cores -= take;
      p.ls.cores += take;
    } else if (r == 1) {
      const int take = std::min(a, p.be.llc_ways - 1);
      if (take < 1) continue;
      p.be.llc_ways -= take;
      p.ls.llc_ways += take;
    } else {
      const int down = std::min(a, p.be.freq_level);
      const int up = std::min(a, m.max_freq_level() - p.ls.freq_level);
      if (down < 1 && up < 1) continue;
      p.be.freq_level -= down;
      p.ls.freq_level += up;
    }
    if (ref.total_power_w(qps, p) > budget) continue;
    const double thr = ref.be_throughput(p.be);
    if (thr > best_thr) {
      best_thr = thr;
      best = p;
      *amount_out = a;
    }
  }
  return best;
}

/// Every BE answer over the whole (cores, P-state, ways) grid matches
/// the scalar model output bit for bit.
void expect_be_grid_matches(const Predictor& predictor,
                            const ScalarModels& ref) {
  for (int c = 0; c <= m.num_cores; ++c) {
    for (int f = 0; f <= m.max_freq_level(); ++f) {
      for (int w = 0; w <= m.llc_ways; ++w) {
        const AppSlice s{c, f, w};
        ASSERT_EQ(bits(predictor.be_power_w(s)), bits(ref.be_power(s)))
            << "be_power " << c << "/" << f << "/" << w;
        ASSERT_EQ(bits(predictor.be_ipc(s)), bits(ref.be_ipc(s)))
            << "be_ipc " << c << "/" << f << "/" << w;
        ASSERT_EQ(bits(predictor.be_throughput(s)),
                  bits(ref.be_throughput(s)))
            << "be_throughput " << c << "/" << f << "/" << w;
      }
    }
  }
}

/// The search and the balancer agree with the reference over a seeded
/// QPS x budget grid; the first `exhaustive_loads` loads of each budget
/// also check the exhaustive sweep.
template <typename Oracle>
void expect_runtime_matches(const Predictor& predictor, const Oracle& ref,
                            const std::vector<double>& budgets, double qps_lo,
                            double qps_hi, std::uint64_t seed,
                            int exhaustive_loads) {
  Rng rng(seed);
  int harvests = 0;
  for (double budget : budgets) {
    ConfigSearch search(predictor, budget);
    for (int k = 0; k < 8; ++k) {
      const double qps = rng.uniform(qps_lo, qps_hi);
      const std::string at =
          " at qps " + std::to_string(qps) + ", budget " +
          std::to_string(budget);
      const SearchResult want = reference_search(ref, qps, budget);
      expect_same_search(want, search.search(qps), "search" + at);
      if (k < exhaustive_loads) {
        expect_same_search(reference_exhaustive(ref, qps, budget),
                           search.exhaustive(qps), "exhaustive" + at);
      }

      // Balancer: harvest from the searched partition, then revert half.
      const Partition current = want.best;
      if (current.be.cores < 1) continue;
      ResourceBalancer balancer(predictor, budget);
      balancer.arm(current);
      int amount = 0;
      const auto want_h =
          reference_harvest(ref, qps, budget, current, &amount);
      const auto got_h = balancer.step(/*slack=*/-0.5, qps, current);
      ASSERT_EQ(want_h.has_value(), got_h.has_value()) << "harvest" << at;
      if (!want_h) continue;
      EXPECT_EQ(*want_h, *got_h) << "harvest" << at;
      ++harvests;

      const int back = std::max(1, amount / 2);
      Partition reverted = *want_h;
      const std::string& kind = balancer.last_action();
      if (kind == "cores") {
        reverted.ls.cores -= back;
        reverted.be.cores += back;
      } else if (kind == "ways") {
        reverted.ls.llc_ways -= back;
        reverted.be.llc_ways += back;
      } else {
        reverted.be.freq_level =
            std::min(m.max_freq_level(), reverted.be.freq_level + back);
        reverted.ls.freq_level = std::max(0, reverted.ls.freq_level - back);
      }
      const bool revert_fits = reverted.ls.cores >= 1 &&
                               reverted.ls.llc_ways >= 1 &&
                               ref.total_power_w(qps, reverted) <= budget;
      const auto got_r = balancer.step(/*slack=*/0.9, qps, *got_h);
      ASSERT_EQ(revert_fits, got_r.has_value()) << "revert" << at;
      if (got_r) {
        EXPECT_EQ(reverted, *got_r) << "revert" << at;
      }
    }
  }
  EXPECT_GT(harvests, 0);  // the grid must reach the balancer
}

struct TrainedPair {
  TrainedModels models;
  double budget_w = 0.0;
  double peak_qps = 0.0;
};

const TrainedPair& trained_pair() {
  static const TrainedPair pair = [] {
    const LsProfile& ls = find_ls("memcached");
    const BeProfile& be = find_be("rt");
    TrainedPair p;
    p.models = train_for_pair(ls, be, small_config());
    p.budget_w = sim::SimulatedServer(ls, be, 7).power_budget_w();
    p.peak_qps = ls.peak_qps;
    return p;
  }();
  return pair;
}

const std::vector<double> kFakeBudgets = {60.0,  90.0,  110.0,
                                          130.0, 160.0, 250.0};

std::vector<double> trained_budgets() {
  std::vector<double> budgets;
  for (double f : {0.55, 0.7, 0.85, 1.0}) {
    budgets.push_back(f * trained_pair().budget_w);
  }
  return budgets;
}

TEST(SearchOracle, BeAnswersMatchScalarModelsOnFakeModels) {
  const TrainedModels models = testing::fake_models();
  const Predictor predictor(m, models);
  expect_be_grid_matches(predictor, ScalarModels{m, models});
}

TEST(SearchOracle, BeAnswersMatchScalarModelsOnTrainedPair) {
  const TrainedPair& pair = trained_pair();
  const Predictor predictor(m, pair.models);
  expect_be_grid_matches(predictor, ScalarModels{m, pair.models});
}

TEST(SearchOracle, RuntimeMatchesScalarModelsOnFakeModels) {
  const TrainedModels models = testing::fake_models();
  const Predictor predictor(m, models);
  expect_runtime_matches(predictor, ScalarModels{m, models}, kFakeBudgets,
                         1000.0, 40000.0, 0x0a11, /*exhaustive_loads=*/2);
}

TEST(SearchOracle, RuntimeMatchesPredictorQueriesOnFakeModels) {
  const Predictor predictor(m, testing::fake_models());
  expect_runtime_matches(predictor, PredictorQueries{predictor}, kFakeBudgets,
                         1000.0, 40000.0, 0x0a11, /*exhaustive_loads=*/2);
}

TEST(SearchOracle, RuntimeMatchesScalarModelsOnTrainedPair) {
  const TrainedPair& pair = trained_pair();
  const Predictor predictor(m, pair.models);
  const ScalarModels scalar{m, pair.models};
  const QosTally<ScalarModels> ref{scalar, predictor};
  expect_runtime_matches(predictor, ref, trained_budgets(),
                         0.05 * pair.peak_qps, 0.95 * pair.peak_qps, 0x0b22,
                         /*exhaustive_loads=*/1);
  ref.expect_table_answered_most();
}

TEST(SearchOracle, RuntimeMatchesPredictorQueriesOnTrainedPair) {
  const TrainedPair& pair = trained_pair();
  const Predictor predictor(m, pair.models);
  const PredictorQueries queries{predictor};
  const QosTally<PredictorQueries> ref{queries, predictor};
  expect_runtime_matches(predictor, ref, trained_budgets(),
                         0.05 * pair.peak_qps, 0.95 * pair.peak_qps, 0x0b22,
                         /*exhaustive_loads=*/1);
  ref.expect_table_answered_most();
}

}  // namespace
}  // namespace sturgeon::core
