// End-to-end fleet tests on fake-model policies (no training), run on
// FleetSim with quiescence skipping off, plus the determinism contract the
// cluster layer promises: one cluster seed fixes every node's streams,
// so results are bit-identical across worker thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "../core/fake_models.h"
#include "baselines/static_policy.h"
#include "cluster/export.h"
#include "core/controller.h"
#include "fleet/fleet.h"
#include "sim/power_model.h"
#include "workloads/app_profile.h"

namespace sturgeon::cluster {
namespace {

/// Sturgeon node on hand-crafted analytic models: full controller path,
/// zero training cost.
NodeSpec fake_spec(const LoadTrace& trace) {
  NodeSpec spec;
  spec.ls = find_ls("memcached");
  spec.be = be_catalog()[0];
  spec.trace = trace;
  const double qos_ms = spec.ls.qos_target_ms;
  spec.make_policy = [qos_ms](const sim::SimulatedServer& server) {
    return std::make_unique<core::SturgeonController>(
        core::testing::fake_predictor(server.machine()), qos_ms,
        server.power_budget_w());
  };
  return spec;
}

/// FleetSim with quiescence skipping and churn off: every node steps
/// every epoch under a full budget split.
fleet::FleetConfig lockstep(ClusterConfig config) {
  fleet::FleetConfig fc;
  fc.cluster = std::move(config);
  return fc;
}

std::vector<NodeSpec> fake_fleet(int n, int duration_s) {
  std::vector<NodeSpec> specs;
  for (int i = 0; i < n; ++i) {
    const double load = 0.3 + 0.1 * i;
    specs.push_back(fake_spec(LoadTrace::constant(load, duration_s)));
  }
  return specs;
}

TEST(ClusterSim, RejectsBadConstruction) {
  EXPECT_THROW(fleet::FleetSim(std::vector<NodeSpec>{}),
               std::invalid_argument);
  ClusterConfig config;
  config.oversubscription = 0.0;
  EXPECT_THROW(fleet::FleetSim(fake_fleet(1, 5), lockstep(config)),
               std::invalid_argument);
  config.oversubscription = 1.5;
  EXPECT_THROW(fleet::FleetSim(fake_fleet(1, 5), lockstep(config)),
               std::invalid_argument);
}

TEST(ClusterSim, RunIsOneShot) {
  ClusterConfig config;
  config.seed = 3;
  fleet::FleetSim sim(fake_fleet(1, 5), lockstep(config));
  EXPECT_FALSE(sim.has_run());
  (void)sim.run();
  EXPECT_TRUE(sim.has_run());
  EXPECT_THROW(sim.run(), std::logic_error);
  // A failed re-run attempt leaves the guard set.
  EXPECT_TRUE(sim.has_run());
}

// Resilience machinery compiled in but left at defaults must not perturb
// the simulation: the fault-injection hooks are observe-only until armed.
TEST(ClusterSim, DefaultResilienceIsBitCompatible) {
  ClusterConfig plain;
  plain.seed = 17;
  fleet::FleetSim a(fake_fleet(3, 10), lockstep(plain));
  const ClusterResult ra = a.run().cluster;

  ClusterConfig spelled_out;
  spelled_out.seed = 17;
  spelled_out.resilience = ResilienceConfig{};
  spelled_out.faults = fault::FaultConfig{};
  fleet::FleetSim b(fake_fleet(3, 10), lockstep(spelled_out));
  const ClusterResult rb = b.run().cluster;

  EXPECT_EQ(ra.fleet_qos_guarantee_rate, rb.fleet_qos_guarantee_rate);
  EXPECT_EQ(ra.aggregate_be_throughput, rb.aggregate_be_throughput);
  EXPECT_EQ(ra.mean_cluster_power_w, rb.mean_cluster_power_w);
  for (std::size_t i = 0; i < ra.node_results.size(); ++i) {
    EXPECT_EQ(ra.node_results[i].total_completed,
              rb.node_results[i].total_completed);
    EXPECT_EQ(ra.node_results[i].mean_cap_w, rb.node_results[i].mean_cap_w);
    EXPECT_EQ(ra.node_results[i].faults_injected, 0u);
    EXPECT_EQ(ra.node_results[i].epochs_down, 0);
    EXPECT_EQ(ra.node_results[i].safe_mode_epochs, 0);
  }
  EXPECT_EQ(ra.dead_node_epochs, 0);
  EXPECT_TRUE(ra.recovery_mttr_epochs.empty());
  EXPECT_LE(ra.max_cap_sum_ratio, 1.0 + 1e-9);
}

// The satellite contract: same cluster seed => bit-identical
// ClusterResult regardless of how many lockstep workers advance the
// fleet. Nodes share no mutable state and both the coordinator split and
// the aggregation are sequential in node order, so the schedule cannot
// leak into the numbers.
TEST(ClusterSim, DeterministicAcrossThreadCounts) {
  const int kNodes = 3, kEpochs = 20;
  auto run_with = [&](std::size_t threads) {
    ClusterConfig config;
    config.seed = 5;
    config.threads = threads;
    fleet::FleetSim sim(fake_fleet(kNodes, kEpochs), lockstep(config));
    return sim.run().cluster;
  };
  const ClusterResult a = run_with(1);
  const ClusterResult b = run_with(4);

  EXPECT_EQ(a.fleet_qos_guarantee_rate, b.fleet_qos_guarantee_rate);
  EXPECT_EQ(a.aggregate_be_throughput, b.aggregate_be_throughput);
  EXPECT_EQ(a.mean_cluster_power_w, b.mean_cluster_power_w);
  EXPECT_EQ(a.max_cluster_power_ratio, b.max_cluster_power_ratio);
  EXPECT_EQ(a.cluster_overshoot_fraction, b.cluster_overshoot_fraction);
  ASSERT_EQ(a.node_results.size(), b.node_results.size());
  for (std::size_t i = 0; i < a.node_results.size(); ++i) {
    const NodeResult& x = a.node_results[i];
    const NodeResult& y = b.node_results[i];
    EXPECT_EQ(x.total_completed, y.total_completed) << "node " << i;
    EXPECT_EQ(x.total_violations, y.total_violations) << "node " << i;
    EXPECT_EQ(x.qos_guarantee_rate, y.qos_guarantee_rate) << "node " << i;
    EXPECT_EQ(x.mean_be_throughput_norm, y.mean_be_throughput_norm)
        << "node " << i;
    EXPECT_EQ(x.mean_cap_w, y.mean_cap_w) << "node " << i;
    EXPECT_EQ(x.max_power_ratio, y.max_power_ratio) << "node " << i;
    EXPECT_EQ(x.throttled_epochs, y.throttled_epochs) << "node " << i;
  }
}

TEST(ClusterSim, DifferentSeedsProduceDifferentRuns) {
  auto run_with = [&](std::uint64_t seed) {
    ClusterConfig config;
    config.seed = seed;
    fleet::FleetSim sim(fake_fleet(2, 20), lockstep(config));
    return sim.run().cluster;
  };
  const ClusterResult a = run_with(1);
  const ClusterResult b = run_with(2);
  EXPECT_NE(a.mean_cluster_power_w, b.mean_cluster_power_w);
}

// Mismatched trace lengths across the fleet: run() extends to the
// longest trace and shorter traces hold their final level (LoadTrace
// clamps past the end), so every node still advances every epoch.
TEST(ClusterSim, MismatchedTraceLengthsClampAndRunFullLockstep) {
  std::vector<NodeSpec> specs;
  specs.push_back(fake_spec(LoadTrace::constant(0.4, 10)));
  specs.push_back(fake_spec(LoadTrace::constant(0.5, 30)));
  ClusterConfig config;
  config.seed = 7;
  fleet::FleetSim sim(std::move(specs), lockstep(config));
  const ClusterResult result = sim.run().cluster;
  EXPECT_EQ(result.epochs, 30);
  for (const auto& nr : result.node_results) {
    EXPECT_EQ(nr.epochs, 30) << "node " << nr.node;
    EXPECT_GT(nr.total_completed, 0u) << "node " << nr.node;
  }
}

// Node i runs spec i: its workload pair, its trace and its machine stay
// together, whatever the specs differ in.
TEST(ClusterSim, EachSpecStaysOnItsOwnMachine) {
  std::vector<NodeSpec> specs = fake_fleet(4, 5);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].be = be_catalog()[i % be_catalog().size()];
    specs[i].server.power.uncore_w = 14.0 + 2.0 * static_cast<double>(i);
  }
  const std::vector<NodeSpec> want = specs;
  ClusterConfig config;
  config.seed = 5;
  fleet::FleetSim sim(std::move(specs), lockstep(config));
  ASSERT_EQ(sim.num_nodes(), 4);
  for (std::size_t i = 0; i < want.size(); ++i) {
    ClusterNode& node = sim.node(i);
    const sim::PowerModel power(want[i].server.machine,
                                want[i].server.power);
    EXPECT_EQ(node.idle_w(), power.idle_power_w()) << "node " << i;
    EXPECT_EQ(node.trace().points(), want[i].trace.points()) << "node " << i;
    EXPECT_EQ(node.result().be, want[i].be.name) << "node " << i;
  }
}

TEST(ClusterSim, ExplicitEpochCountOverridesTraces) {
  ClusterConfig config;
  config.seed = 7;
  fleet::FleetSim sim(fake_fleet(1, 50), lockstep(config));
  const ClusterResult result = sim.run(8).cluster;
  EXPECT_EQ(result.epochs, 8);
  EXPECT_EQ(result.node_results[0].epochs, 8);
}

// A cap-oblivious static policy under a tight cluster budget: only the
// node governor can keep the node near its cap, and disabling it must
// show up as cluster-level overshoot.
TEST(ClusterSim, GovernorEnforcesTightCapOnStaticPolicy) {
  auto static_specs = [] {
    std::vector<NodeSpec> specs;
    NodeSpec spec;
    spec.ls = find_ls("memcached");
    spec.be = be_catalog()[0];
    spec.trace = LoadTrace::constant(0.6, 40);
    spec.make_policy = [](const sim::SimulatedServer& server) {
      // Canonical 60/40 split, BE at a mid P-state: the "no management"
      // configuration an operator might hand-pick.
      const MachineSpec& m = server.machine();
      Partition p;
      p.ls = {std::max(1, m.num_cores * 3 / 5), m.max_freq_level(),
              std::max(1, m.llc_ways * 3 / 5)};
      p.be = Allocation::complement(m, p.ls, m.max_freq_level() / 2);
      return std::make_unique<baselines::StaticPolicy>(p);
    };
    specs.push_back(std::move(spec));
    return specs;
  };

  // Probe the node's natural budget and idle floor, then pin the
  // cluster budget at 40% of the dynamic range above idle.
  ClusterConfig probe_config;
  probe_config.seed = 11;
  fleet::FleetSim probe(static_specs(), lockstep(probe_config));
  const double natural = probe.node(0).budget_w();
  const double idle = probe.node(0).idle_w();
  ASSERT_GT(natural, idle);
  const double tight = idle + 0.4 * (natural - idle);

  ClusterConfig governed;
  governed.seed = 11;
  governed.power_budget_w = tight;
  fleet::FleetSim governed_sim(static_specs(), lockstep(governed));
  const ClusterResult with_governor = governed_sim.run().cluster;

  ClusterConfig ungoverned = governed;
  ungoverned.governor.enabled = false;
  fleet::FleetSim ungoverned_sim(static_specs(), lockstep(ungoverned));
  const ClusterResult without_governor = ungoverned_sim.run().cluster;

  // The static partition wants far more than the cap: the governor must
  // have throttled, and the ungoverned run must overshoot more.
  EXPECT_GT(with_governor.node_results[0].throttled_epochs, 0);
  EXPECT_GT(without_governor.cluster_overshoot_fraction,
            with_governor.cluster_overshoot_fraction);
  EXPECT_LT(with_governor.max_cluster_power_ratio,
            without_governor.max_cluster_power_ratio);
}

TEST(ClusterSim, FleetCountersRollUpIntoClusterRegistry) {
  const int kNodes = 2, kEpochs = 12;
  ClusterConfig config;
  config.seed = 13;
  fleet::FleetSim sim(fake_fleet(kNodes, kEpochs), lockstep(config));
  const ClusterResult result = sim.run().cluster;
  ASSERT_NE(result.telemetry, nullptr);

  const auto snap = result.telemetry->metrics().snapshot();
  std::map<std::string, std::uint64_t> fleet;  // "fleet.X" keyed by X
  std::uint64_t cluster_epochs = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.starts_with("fleet.")) fleet[name.substr(6)] = value;
    if (name == "cluster.epochs") cluster_epochs = value;
  }
  EXPECT_EQ(fleet["run.epochs"], static_cast<std::uint64_t>(kNodes * kEpochs));
  EXPECT_EQ(cluster_epochs, static_cast<std::uint64_t>(kEpochs));

  // Every node counter X rolls up into fleet.X, the sum over the nodes;
  // the engine's own fleet.* counters have no node twin and read 0 here
  // (no skipping, no churn).
  std::map<std::string, std::uint64_t> sums;
  for (const NodeResult& nr : result.node_results) {
    for (const auto& [name, value] : nr.telemetry->metrics().snapshot()
                                         .counters) {
      sums[name] += value;
    }
  }
  int nonzero = 0;
  for (const auto& [name, sum] : sums) {
    ASSERT_TRUE(fleet.contains(name)) << "no fleet." << name;
    nonzero += sum != 0 ? 1 : 0;
  }
  EXPECT_GE(nonzero, 3);
  for (const auto& [name, value] : fleet) {
    const auto it = sums.find(name);
    EXPECT_EQ(value, it == sums.end() ? 0u : it->second) << "fleet." << name;
  }
}

TEST(ClusterSim, JsonlRollupHasOneLinePerNodePlusCluster) {
  const int kNodes = 2;
  ClusterConfig config;
  config.seed = 17;
  fleet::FleetSim sim(fake_fleet(kNodes, 10), lockstep(config));
  const ClusterResult result = sim.run().cluster;

  std::ostringstream os;
  write_cluster_jsonl(result, os);
  std::istringstream is(os.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kNodes) + 1);
  for (int i = 0; i < kNodes; ++i) {
    EXPECT_NE(lines[static_cast<std::size_t>(i)].find("\"run_summary\""),
              std::string::npos);
    EXPECT_NE(lines[static_cast<std::size_t>(i)].find(
                  "\"node\":" + std::to_string(i)),
              std::string::npos);
  }
  EXPECT_NE(lines.back().find("\"cluster\":true"), std::string::npos);
  EXPECT_NE(lines.back().find("\"fleet_qos_guarantee_rate\""),
            std::string::npos);
}

TEST(ClusterSim, SumOfCapsNeverExceedsBudgetDuringRun) {
  // Indirect check through the result: mean caps per node, summed, stay
  // under the cluster budget (the coordinator invariant integrated over
  // the run).
  ClusterConfig config;
  config.seed = 19;
  config.coordinator = CoordinatorKind::kSlackHarvest;
  fleet::FleetSim sim(fake_fleet(3, 25), lockstep(config));
  const double budget = sim.cluster_budget_w();
  const ClusterResult result = sim.run().cluster;
  double mean_cap_sum = 0.0;
  for (const auto& nr : result.node_results) mean_cap_sum += nr.mean_cap_w;
  EXPECT_LE(mean_cap_sum, budget + 1e-6);
}

}  // namespace
}  // namespace sturgeon::cluster
