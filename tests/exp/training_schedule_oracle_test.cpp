// Bit-identity oracle for the training schedule (exp::warm_models).
//
// warm_models splits training into pieces (each LS service's
// boundary-search chain and sweep probes, each BE set's profiling, each
// role fit, each set's tables) that its pool's workers claim one at a
// time; the lazy path (ls_models_for, be_models_for, predictor_for) runs
// the same pieces in order on one thread. At a small campaign, two LS and
// two BE services train lazily and with warm_models on pools of 1 to 4
// workers, and every value training produces must agree bit for bit:
// the profiling rows of a campaign run piece by piece out of order
// against collect_ls_profiling's, each family's hold-out score and the
// family deployed, predictions over a fixed feature grid, QoS-table
// segments and lookups, and the BE tables every predictor answers from.
// A digest of those values, taken when each service still trained whole
// on one thread, pins them, so a restructure that changes any model
// fails here.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/features.h"
#include "core/predictor.h"
#include "core/qos_table.h"
#include "core/trainer.h"
#include "exp/model_registry.h"
#include "util/thread_pool.h"

namespace sturgeon::exp {
namespace {

using Pairs = std::vector<std::pair<const LsProfile*, const BeProfile*>>;

/// The value digest of schedule_config()'s services, from the lazy path
/// before warm_models split training into pieces.
constexpr std::uint64_t kPinnedDigest = 0xe71aa2b5e9907450ULL;

/// Small enough that one whole training takes a fraction of a second.
/// The seed is one under which the two LS services deploy the two
/// families with a QoS table: memcached a LogisticRegression, xapian an
/// MlpClassifier.
core::TrainerConfig schedule_config() {
  core::TrainerConfig cfg;
  cfg.ls_samples = 40;
  cfg.ls_boundary_searches = 8;
  cfg.be_samples = 30;
  cfg.intervals_per_sample = 1;
  cfg.seed = 0x5cf3;
  return cfg;
}

/// Two LS and two BE services, every pairing.
Pairs schedule_pairs() {
  Pairs pairs;
  for (const char* ls : {"memcached", "xapian"}) {
    for (const char* be : {"bs", "rt"}) {
      pairs.emplace_back(&find_ls(ls), &find_be(be));
    }
  }
  return pairs;
}

/// Every value training produced, in a fixed order: doubles as their
/// bit patterns, deployed families by name.
struct Snapshot {
  std::vector<std::uint64_t> words;
  std::vector<std::string> families;

  void add(double v) { words.push_back(std::bit_cast<std::uint64_t>(v)); }
  void add(std::uint64_t v) { words.push_back(v); }

  void add(const core::FamilyScores& scores) {
    for (const auto& [kind, score] : scores) {
      add(static_cast<std::uint64_t>(kind));
      add(score);
    }
  }

  /// FNV-1a over the words and the family names.
  std::uint64_t digest() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t byte) {
      h = (h ^ byte) * 0x100000001b3ULL;
    };
    for (const std::uint64_t w : words) {
      for (int b = 0; b < 8; ++b) mix((w >> (8 * b)) & 0xff);
    }
    for (const std::string& name : families) {
      for (const char c : name) mix(static_cast<unsigned char>(c));
      mix(0);
    }
    return h;
  }
};

/// A strided sample of the machine's slices with at least one core and
/// one way.
std::vector<AppSlice> grid_slices(const MachineSpec& m) {
  std::vector<AppSlice> out;
  for (int c = 1; c <= m.num_cores; c += 4) {
    for (int f = 0; f <= m.max_freq_level(); f += 3) {
      for (int w = 1; w <= m.llc_ways; w += 5) out.push_back({c, f, w});
    }
  }
  return out;
}

void add_ls(Snapshot& s, const core::LsModels& ls, const MachineSpec& m) {
  s.families.push_back(ls.qos->name());
  s.families.push_back(ls.power->name());
  s.add(ls.qos_accuracy);
  s.add(ls.power_r2);
  s.add(ls.profiled_peak_qps);
  const double peak = ls.profiled_peak_qps;
  for (const AppSlice& slice : grid_slices(m)) {
    for (const double qps : {0.0, 0.3 * peak, 0.7 * peak, 1.05 * peak}) {
      const ml::FeatureRow row = core::ls_features(m, qps, slice);
      s.add(static_cast<std::uint64_t>(ls.qos->predict(row)));
      s.add(ls.power->predict(row));
      if (ls.qos_table) {
        s.add(static_cast<std::uint64_t>(ls.qos_table->lookup(slice, qps)));
      }
    }
  }
  s.add(static_cast<std::uint64_t>(ls.qos_table != nullptr));
  if (!ls.qos_table) return;
  s.add(ls.qos_table->qps_max());
  const core::SliceGrid grid(m);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    for (const auto& seg : ls.qos_table->segments(grid.at(i))) {
      s.add(seg.end);
      s.add(static_cast<std::uint64_t>(seg.label));
    }
  }
}

void add_be(Snapshot& s, const core::BeModels& be, const MachineSpec& m) {
  s.families.push_back(be.ipc->name());
  s.families.push_back(be.power->name());
  s.add(be.ipc_r2);
  s.add(be.power_r2);
  s.add(be.idle_power_w);
  for (const AppSlice& slice : grid_slices(m)) {
    const ml::FeatureRow row =
        core::be_features(m, core::kNativeInputLevel, slice);
    s.add(be.ipc->predict(row));
    s.add(be.power->predict(row));
  }
}

/// The BE answers a pair's predictor gives over every slice.
void add_predictor(Snapshot& s, const core::Predictor& p) {
  const core::SliceGrid grid(p.machine());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const AppSlice slice = grid.at(i);
    s.add(p.be_power_w(slice));
    s.add(p.be_ipc(slice));
  }
}

/// Look up (training lazily where nothing is cached) every model the
/// pairs need, LS services first, then BE sets, then the predictors.
Snapshot snapshot(const Pairs& pairs, const core::TrainerConfig& config) {
  const MachineSpec& m = config.server.machine;
  Snapshot s;
  for (const char* name : {"memcached", "xapian"}) {
    add_ls(s, ls_models_for(find_ls(name), config), m);
  }
  for (const char* name : {"bs", "rt"}) {
    add_be(s, be_models_for(find_be(name), config), m);
  }
  for (const auto& [ls, be] : pairs) {
    add_predictor(s, *predictor_for(*ls, *be, config));
  }
  return s;
}

/// Compare two snapshots word by word, naming the first difference.
void expect_same(const Snapshot& got, const Snapshot& want,
                 const std::string& what) {
  EXPECT_EQ(got.families, want.families) << what;
  ASSERT_EQ(got.words.size(), want.words.size()) << what;
  for (std::size_t i = 0; i < got.words.size(); ++i) {
    ASSERT_EQ(got.words[i], want.words[i]) << what << ": word " << i;
  }
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Train lazily from an empty cache and take the snapshot.
Snapshot lazy_snapshot() {
  clear_predictor_cache();
  Snapshot lazy = snapshot(schedule_pairs(), schedule_config());
  clear_predictor_cache();
  return lazy;
}

TEST(TrainingSchedule, LazyTrainingMatchesPinnedDigest) {
  const Snapshot lazy = lazy_snapshot();
  std::fprintf(stdout, "lazy training: %zu values, digest %s; families:",
               lazy.words.size(), hex(lazy.digest()).c_str());
  for (const std::string& f : lazy.families) {
    std::fprintf(stdout, " %s", f.c_str());
  }
  std::fprintf(stdout, "\n");
  EXPECT_EQ(hex(lazy.digest()), hex(kPinnedDigest));
}

TEST(TrainingSchedule, SplitCampaignRowsEqualOnePass) {
  const core::TrainerConfig config = schedule_config();
  ThreadPool pool(3);
  for (const char* name : {"memcached", "xapian"}) {
    const LsProfile& ls = find_ls(name);
    const core::LsProfilingData want = core::collect_ls_profiling(ls, config);
    // The chain first, then the sweep probes last to first, concurrently.
    core::LsCampaign campaign(ls, config);
    const std::size_t n = campaign.sweep_size();
    pool.parallel_for(n + 1, [&](std::size_t i) {
      if (i == 0) {
        campaign.run_boundary_searches();
      } else {
        campaign.run_sweep_probe(n - i);
      }
    });
    const core::LsProfilingData got = campaign.take_data();
    ASSERT_EQ(got.x.size(), want.x.size()) << name;
    EXPECT_GT(got.x.size(), n) << name << ": the chain added no rows";
    for (std::size_t r = 0; r < want.x.size(); ++r) {
      ASSERT_EQ(got.x[r].size(), want.x[r].size()) << name << " row " << r;
      for (std::size_t k = 0; k < want.x[r].size(); ++k) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.x[r][k]),
                  std::bit_cast<std::uint64_t>(want.x[r][k]))
            << name << " row " << r << " feature " << k;
      }
      ASSERT_EQ(got.qos_ok[r], want.qos_ok[r]) << name << " row " << r;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.power_w[r]),
                std::bit_cast<std::uint64_t>(want.power_w[r]))
          << name << " row " << r;
    }
  }
}

TEST(TrainingSchedule, PredictorsShareTheirBeSetsTables) {
  clear_predictor_cache();
  const core::TrainerConfig config = schedule_config();
  for (const auto& [ls, be] : schedule_pairs()) {
    const auto predictor = predictor_for(*ls, *be, config);
    ASSERT_NE(be_models_for(*be, config).tables, nullptr) << be->name;
    // A fill of its own would have counted one call per model and slice.
    EXPECT_EQ(predictor->model_invocations(), 0u)
        << ls->name << "+" << be->name;
  }
  clear_predictor_cache();
}

TEST(TrainingSchedule, LazyCallersWaitForWarmTraining) {
  // One thread warms while this one asks for the same services lazily;
  // whichever claims a service trains it once, and the other waits.
  clear_predictor_cache();
  const Pairs pairs = schedule_pairs();
  const core::TrainerConfig config = schedule_config();
  ThreadPool pool(2);
  std::thread warm([&] { warm_models(pairs, &pool, config); });
  const Snapshot lazy = snapshot(pairs, config);
  warm.join();
  EXPECT_EQ(hex(lazy.digest()), hex(kPinnedDigest));
  clear_predictor_cache();
}

class WarmOnPool : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WarmOnPool, EqualsLazyTrainingBitForBit) {
  const Snapshot lazy = lazy_snapshot();
  ThreadPool pool(GetParam());
  warm_models(schedule_pairs(), &pool, schedule_config());
  // Every lookup is now a cache hit.
  const Snapshot warm = snapshot(schedule_pairs(), schedule_config());
  clear_predictor_cache();
  expect_same(warm, lazy, "warm_models on " + std::to_string(GetParam()) +
                              " workers");
  EXPECT_EQ(hex(warm.digest()), hex(kPinnedDigest));
}

INSTANTIATE_TEST_SUITE_P(
    TrainingSchedule, WarmOnPool, ::testing::Values(1, 2, 3, 4),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::to_string(info.param) + "_workers";
    });

}  // namespace
}  // namespace sturgeon::exp
