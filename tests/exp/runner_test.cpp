// Integration tests: full co-location runs (cluster::run_colocation, one
// uncapped ClusterNode) through the isolation layer with trained models
// (reduced profiling campaign for speed).
#include "cluster/node.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "../core/fake_models.h"
#include "baselines/heracles.h"
#include "baselines/parties.h"
#include "baselines/static_policy.h"
#include "core/controller.h"
#include "exp/model_registry.h"

namespace sturgeon::exp {
namespace {

using cluster::NodeResult;
using cluster::run_colocation;
using cluster::RunConfig;

core::TrainerConfig small_config() {
  core::TrainerConfig cfg;
  cfg.ls_samples = 250;
  cfg.ls_boundary_searches = 60;
  cfg.be_samples = 150;
  cfg.seed = 0xFEED;  // shared by all tests in this binary
  return cfg;
}

TEST(Runner, StaticPolicyHoldsItsPartition) {
  const auto& ls = find_ls("memcached");
  const auto& be = find_be("bs");
  const MachineSpec m = MachineSpec::xeon_e5_2630_v4();
  Partition p;
  p.ls = {8, m.max_freq_level(), 10};
  p.be = Allocation::complement(m, p.ls, 4);
  baselines::StaticPolicy policy(p, "Fixed");
  RunConfig rc;
  rc.record_trace = true;
  const auto r = run_colocation(ls, be, policy, LoadTrace::constant(0.2, 20),
                                rc);
  ASSERT_TRUE(r.telemetry);
  const auto& rows = r.telemetry->recorder().rows();
  ASSERT_EQ(rows.size(), 20u);
  // From t=1 on, the applied partition is the static one.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].partition, p);
  }
  EXPECT_GT(r.mean_be_throughput_norm, 0.0);
}

TEST(Runner, DeterministicForSeed) {
  const auto& ls = find_ls("memcached");
  const auto& be = find_be("bs");
  baselines::PartiesOptions po;
  po.power_budget_w = 117.0;
  baselines::PartiesController policy(MachineSpec::xeon_e5_2630_v4(), 10.0,
                                      po);
  RunConfig rc;
  rc.seed = 5;
  const auto trace = LoadTrace::ramp_up_down(0.2, 0.6, 40);
  const auto a = run_colocation(ls, be, policy, trace, rc);
  const auto b = run_colocation(ls, be, policy, trace, rc);
  EXPECT_DOUBLE_EQ(a.qos_guarantee_rate, b.qos_guarantee_rate);
  EXPECT_DOUBLE_EQ(a.mean_be_throughput_norm, b.mean_be_throughput_norm);
}

TEST(Runner, SturgeonEndToEndHoldsQosAndHarvests) {
  const auto& ls = find_ls("memcached");
  const auto& be = find_be("rt");
  const auto predictor = predictor_for(ls, be, small_config());
  sim::SimulatedServer probe(ls, be, 7);
  core::SturgeonController sturgeon(predictor, ls.qos_target_ms,
                                    probe.power_budget_w());
  RunConfig rc;
  rc.seed = 42;
  const auto r = run_colocation(ls, be, sturgeon,
                                LoadTrace::ramp_up_down(0.2, 0.8, 120), rc);
  EXPECT_GT(r.qos_guarantee_rate, 0.90);
  EXPECT_GT(r.mean_be_throughput_norm, 0.25);
  EXPECT_LT(r.max_power_ratio, 1.06);
  EXPECT_GT(sturgeon.searches_run(), 0u);
}

TEST(Runner, SturgeonBeatsPartiesOnThroughput) {
  const auto& ls = find_ls("memcached");
  const auto& be = find_be("rt");
  const auto predictor = predictor_for(ls, be, small_config());
  sim::SimulatedServer probe(ls, be, 7);
  const double budget = probe.power_budget_w();
  const auto trace = LoadTrace::ramp_up_down(0.2, 0.8, 120);
  RunConfig rc;
  rc.seed = 42;

  core::SturgeonController sturgeon(predictor, ls.qos_target_ms, budget);
  const auto r_st = run_colocation(ls, be, sturgeon, trace, rc);

  baselines::PartiesOptions po;
  po.power_budget_w = budget;
  baselines::PartiesController parties(probe.machine(), ls.qos_target_ms,
                                       po);
  const auto r_pa = run_colocation(ls, be, parties, trace, rc);

  EXPECT_GT(r_st.mean_be_throughput_norm, r_pa.mean_be_throughput_norm);
}

TEST(Runner, BalancerClosesTheNoBQosGap) {
  // fd pairs suffer persistent bandwidth contention: the ablation without
  // the balancer must lose QoS, the full controller must not.
  const auto& ls = find_ls("memcached");
  const auto& be = find_be("fd");
  const auto predictor = predictor_for(ls, be, small_config());
  sim::SimulatedServer probe(ls, be, 7);
  const double budget = probe.power_budget_w();
  const auto trace = LoadTrace::ramp_up_down(0.2, 0.8, 120);
  RunConfig rc;
  rc.seed = 42;

  core::SturgeonController sturgeon(predictor, ls.qos_target_ms, budget);
  const auto r_full = run_colocation(ls, be, sturgeon, trace, rc);

  core::SturgeonOptions nob;
  nob.enable_balancer = false;
  core::SturgeonController no_balancer(predictor, ls.qos_target_ms, budget,
                                       nob);
  const auto r_nob = run_colocation(ls, be, no_balancer, trace, rc);

  EXPECT_GT(r_full.qos_guarantee_rate, r_nob.qos_guarantee_rate + 0.1);
}

/// FNV-1a over the bit pattern of the run's QoS, throughput and power
/// results, its epoch count, every per-second trace row and its
/// partition-change count.
class RunDigest {
 public:
  explicit RunDigest(const NodeResult& r) {
    add(r.qos_guarantee_rate);
    add(r.mean_be_throughput_norm);
    add(r.interval_qos_rate);
    add(r.budget_w);
    add(r.power_overshoot_fraction);
    add(r.max_power_ratio);
    add(r.epochs);
    const auto& rows = r.telemetry->recorder().rows();
    add(static_cast<std::uint64_t>(rows.size()));
    for (const telemetry::TraceRow& row : rows) {
      add(row.t_s);
      add(row.load_fraction);
      add(row.qps);
      add(row.p95_ms);
      add(row.power_w);
      add(row.be_throughput_norm);
      for (const AppSlice& s : {row.partition.ls, row.partition.be}) {
        add(s.cores);
        add(s.freq_level);
        add(s.llc_ways);
      }
    }
    add(r.telemetry->metrics().counter("run.partition_changes").value());
  }

  std::uint64_t value() const { return hash_; }

 private:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(int v) {
    add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Golden digests of five policies on memcached+fd, fake models for the
// two Sturgeon variants (demand 0.5 per kQPS keeps the balancer busy).
// They pin every figure's per-node control loop bit for bit.
TEST(Runner, GoldenDigests) {
  const auto& ls = find_ls("memcached");
  const auto& be = find_be("fd");
  sim::SimulatedServer probe(ls, be, 7);
  const MachineSpec& m = probe.machine();
  const double budget = probe.power_budget_w();
  const auto predictor = core::testing::fake_predictor(m, 0.5, 3);
  const auto trace = LoadTrace::ramp_up_down(0.2, 0.8, 120);
  RunConfig rc;
  rc.seed = 42;
  rc.record_trace = true;

  core::SturgeonController sturgeon(predictor, ls.qos_target_ms, budget);
  core::SturgeonOptions nob_opts;
  nob_opts.enable_balancer = false;
  core::SturgeonController nob(predictor, ls.qos_target_ms, budget, nob_opts);
  baselines::PartiesOptions po;
  po.power_budget_w = budget;
  baselines::PartiesController parties(m, ls.qos_target_ms, po);
  baselines::HeraclesOptions ho;
  ho.power_budget_w = budget;
  baselines::HeraclesController heracles(m, ls.qos_target_ms, ho);
  Partition fixed;
  fixed.ls = {8, m.max_freq_level(), 10};
  fixed.be = Allocation::complement(m, fixed.ls, 4);
  baselines::StaticPolicy fixed_policy(fixed, "Fixed");

  const struct {
    core::Policy* policy;
    std::uint64_t digest;
  } goldens[] = {
      {&sturgeon, 0xd3a48506fda7846cULL},
      {&nob, 0xe2114a588d092da1ULL},
      {&parties, 0xf462aecd43cd5353ULL},
      {&heracles, 0x256d1949d70d1918ULL},
      {&fixed_policy, 0x8904fc1759b7d030ULL},
  };
  std::vector<std::uint64_t> actual;
  for (const auto& g : goldens) {
    SCOPED_TRACE(g.policy->describe());
    const auto r = run_colocation(ls, be, *g.policy, trace, rc);
    actual.push_back(RunDigest(r).value());
    EXPECT_EQ(actual.back(), g.digest)
        << std::hex << "digest 0x" << actual.back();
  }
  EXPECT_GT(sturgeon.searches_run(), 0u);
  EXPECT_GT(sturgeon.balancer_actions(), 0u);
  EXPECT_NE(actual[0], actual[1]) << "the balancer never changed a decision";
}

TEST(ModelRegistry, CachesAndGuardsSeeds) {
  const auto& ls = find_ls("memcached");
  const auto& be = find_be("rt");
  const auto a = predictor_for(ls, be, small_config());
  const auto b = predictor_for(ls, be, small_config());
  EXPECT_EQ(a.get(), b.get());  // cached

  core::TrainerConfig other = small_config();
  other.seed = 0xDEAD;
  EXPECT_THROW(predictor_for(ls, be, other), std::logic_error);
}

}  // namespace
}  // namespace sturgeon::exp
