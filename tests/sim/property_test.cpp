// Property-style sweeps over every LS x BE pair and random partitions:
// the telemetry invariants every downstream component relies on must
// hold for arbitrary valid inputs, not just the calibrated anchors.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "sim/server.h"
#include "util/rng.h"

namespace sturgeon::sim {
namespace {

// gtest names each case by the parameter's raw bytes. Pointers to the
// service names would put string addresses into the case names, and those
// move whenever the test binary's layout changes (and with ASLR), so the
// names are held inline: every byte is fixed and no byte is padding.
// name_tag leads each case with the bytes its recorded name starts with,
// one value per LS service, so no case changes its name.
struct PairParam {
  std::uint16_t name_tag;
  char ls[10];
  char be[4];
};
static_assert(sizeof(PairParam) == 16);
static_assert(std::has_unique_object_representations_v<PairParam>);

constexpr std::uint16_t kMemcachedTag = 0x00B0;
constexpr std::uint16_t kXapianTag = 0x7085;
constexpr std::uint16_t kImgDnnTag = 0x0049;

std::string param_name(const ::testing::TestParamInfo<PairParam>& info) {
  std::string n = std::string(info.param.ls) + "_" + info.param.be;
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

class PairPropertyTest : public ::testing::TestWithParam<PairParam> {
 protected:
  static ServerConfig quiet() {
    ServerConfig cfg;
    cfg.interference.enabled = false;
    return cfg;
  }
};

TEST_P(PairPropertyTest, TelemetryInvariantsUnderRandomConfigurations) {
  const auto& ls = find_ls(GetParam().ls);
  const auto& be = find_be(GetParam().be);
  Rng rng(0xABCD ^ std::hash<std::string>{}(ls.name + be.name));
  const MachineSpec m = MachineSpec::xeon_e5_2630_v4();

  for (int trial = 0; trial < 12; ++trial) {
    SimulatedServer server(ls, be, rng.next_u64(), quiet());
    Partition p;
    p.ls.cores = rng.uniform_int(1, m.num_cores - 1);
    p.ls.freq_level = rng.uniform_int(0, m.max_freq_level());
    p.ls.llc_ways = rng.uniform_int(1, m.llc_ways - 1);
    p.be.cores = rng.uniform_int(1, m.num_cores - p.ls.cores);
    p.be.freq_level = rng.uniform_int(0, m.max_freq_level());
    p.be.llc_ways = rng.uniform_int(1, m.llc_ways - p.ls.llc_ways);
    server.set_partition(p);
    const double load = rng.uniform(0.05, 0.95);
    for (int i = 0; i < 2; ++i) {
      const auto t = server.step(load);
      // Power between idle and a sane ceiling.
      EXPECT_GT(t.power_w, server.power_model().idle_power_w() * 0.9);
      EXPECT_LT(t.power_w, 250.0);
      // Throughput normalized to solo is in (0, ~1].
      EXPECT_GT(t.be_throughput_norm, 0.0);
      EXPECT_LE(t.be_throughput_norm, 1.0 + 1e-9);
      // Latency stats coherent.
      EXPECT_GE(t.ls.p99_ms, t.ls.p95_ms - 1e-9);
      EXPECT_GE(t.ls.p95_ms, 0.0);
      EXPECT_LE(t.ls.qos_violations, t.ls.completed + t.ls.arrivals);
      EXPECT_GE(t.ls.utilization, 0.0);
      EXPECT_LE(t.ls.utilization, 1.0);
      // Bandwidth non-negative and bounded by physically plausible sums.
      EXPECT_GE(t.bw_gbps, 0.0);
      EXPECT_LT(t.bw_gbps, 120.0);
      // Interference disabled -> factor exactly 1.
      EXPECT_DOUBLE_EQ(t.interference_factor, 1.0);
    }
  }
}

TEST_P(PairPropertyTest, MoreLsResourcesNeverHurtLatency) {
  const auto& ls = find_ls(GetParam().ls);
  const auto& be = find_be(GetParam().be);
  const MachineSpec m = MachineSpec::xeon_e5_2630_v4();
  const double load = 0.4;

  const auto mean_p95 = [&](const Partition& p) {
    SimulatedServer server(ls, be, 1234, quiet());
    server.set_partition(p);
    double acc = 0.0;
    for (int i = 0; i < 5; ++i) acc += server.step(load).ls.p95_ms;
    return acc / 5;
  };

  Partition small;
  small.ls = {5, m.level_for(1.6), 5};
  small.be = Allocation::complement(m, small.ls, 5);
  Partition big;
  big.ls = {10, m.max_freq_level(), 10};
  big.be = Allocation::complement(m, big.ls, 5);
  // Allow a generous noise margin; the relation must hold clearly.
  EXPECT_LT(mean_p95(big), mean_p95(small) * 1.05);
}

TEST_P(PairPropertyTest, BudgetIndependentOfBePairing) {
  // The budget is defined by the LS service alone; the co-located BE app
  // must not change it.
  const auto& ls = find_ls(GetParam().ls);
  const auto& be = find_be(GetParam().be);
  SimulatedServer a(ls, be, 1, quiet());
  SimulatedServer b(ls, be_catalog().front(), 1, quiet());
  EXPECT_DOUBLE_EQ(a.power_budget_w(), b.power_budget_w());
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, PairPropertyTest,
    ::testing::Values(PairParam{kMemcachedTag, "memcached", "bs"},
                      PairParam{kMemcachedTag, "memcached", "fa"},
                      PairParam{kMemcachedTag, "memcached", "fe"},
                      PairParam{kMemcachedTag, "memcached", "rt"},
                      PairParam{kMemcachedTag, "memcached", "sp"},
                      PairParam{kMemcachedTag, "memcached", "fd"},
                      PairParam{kXapianTag, "xapian", "bs"},
                      PairParam{kXapianTag, "xapian", "fa"},
                      PairParam{kXapianTag, "xapian", "fe"},
                      PairParam{kXapianTag, "xapian", "rt"},
                      PairParam{kXapianTag, "xapian", "sp"},
                      PairParam{kXapianTag, "xapian", "fd"},
                      PairParam{kImgDnnTag, "img-dnn", "bs"},
                      PairParam{kImgDnnTag, "img-dnn", "fa"},
                      PairParam{kImgDnnTag, "img-dnn", "fe"},
                      PairParam{kImgDnnTag, "img-dnn", "rt"},
                      PairParam{kImgDnnTag, "img-dnn", "sp"},
                      PairParam{kImgDnnTag, "img-dnn", "fd"}),
    param_name);

}  // namespace
}  // namespace sturgeon::sim
