// The golden contract: FleetSim with quiescence skipping and churn off
// steps every node every epoch under a full budget split, and its
// ClusterResult must stay bit-identical to digests captured while two
// independent copies of that loop still existed and matched each other
// -- for every coordinator over the direct and chaos-net transports,
// and under the standard fault schedule. A comms config on a zero-fault
// network runs the direct path, so it reproduces its coordinator's
// direct digest, comms counters (all zero) included. Plus the engine's
// determinism and accounting invariants with skipping on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "../core/fake_models.h"
#include "core/controller.h"
#include "fleet/export.h"
#include "fleet/fleet.h"
#include "workloads/app_profile.h"

namespace sturgeon::fleet {
namespace {

using cluster::ClusterConfig;
using cluster::ClusterResult;
using cluster::NodeResult;
using cluster::NodeSpec;

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

std::vector<NodeSpec> fake_fleet(int n, int duration_s) {
  std::vector<NodeSpec> specs;
  for (int i = 0; i < n; ++i) {
    const double load = 0.3 + 0.1 * (i % 4);
    specs.push_back(fake_spec(LoadTrace::constant(load, duration_s)));
  }
  return specs;
}

void expect_cluster_results_identical(const ClusterResult& a,
                                      const ClusterResult& b) {
  EXPECT_EQ(a.fleet_qos_guarantee_rate, b.fleet_qos_guarantee_rate);
  EXPECT_EQ(a.aggregate_be_throughput, b.aggregate_be_throughput);
  EXPECT_EQ(a.cluster_power_budget_w, b.cluster_power_budget_w);
  EXPECT_EQ(a.cluster_overshoot_fraction, b.cluster_overshoot_fraction);
  EXPECT_EQ(a.max_cluster_power_ratio, b.max_cluster_power_ratio);
  EXPECT_EQ(a.mean_cluster_power_w, b.mean_cluster_power_w);
  EXPECT_EQ(a.max_cap_sum_ratio, b.max_cap_sum_ratio);
  EXPECT_EQ(a.dead_node_epochs, b.dead_node_epochs);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.coordinator, b.coordinator);
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
    EXPECT_EQ(x.epochs, y.epochs) << "node " << i;
  }
}

/// FNV-1a over the bit pattern of every numeric ClusterResult and
/// NodeResult field, in declaration order (vectors hash their length
/// first). Strings and telemetry handles are left out.
class ResultDigest {
 public:
  explicit ResultDigest(const ClusterResult& r) {
    add(r.fleet_qos_guarantee_rate);
    add(r.aggregate_be_throughput);
    add(r.cluster_power_budget_w);
    add(r.cluster_overshoot_fraction);
    add(r.max_cluster_power_ratio);
    add(r.mean_cluster_power_w);
    add(r.max_cap_sum_ratio);
    add(r.dead_node_epochs);
    add(r.recovery_mttr_epochs);
    add(r.mttr_p95_epochs);
    add(r.epochs);
    add(r.nodes);
    for (const std::uint64_t v :
         {r.comms_sent, r.comms_dropped, r.comms_delayed, r.comms_duplicated,
          r.comms_grants_sent, r.comms_grants_delivered,
          r.comms_grants_dropped, r.comms_grants_in_flight,
          r.comms_lease_renewals, r.comms_lease_expiries,
          r.comms_autonomy_epochs}) {
      add(v);
    }
    add(r.node_results.size());
    for (const NodeResult& n : r.node_results) {
      add(n.node);
      add(n.epochs);
      add(n.total_completed);
      add(n.total_violations);
      add(n.qos_guarantee_rate);
      add(n.interval_qos_rate);
      add(n.mean_be_throughput_norm);
      add(n.budget_w);
      add(n.mean_cap_w);
      add(n.max_power_ratio);
      add(n.throttled_epochs);
      add(n.epochs_down);
      add(n.epochs_hung);
      add(n.safe_mode_epochs);
      add(n.watchdog_trips);
      add(n.safe_mode_episodes);
      add(n.faults_injected);
      add(n.sensor_rejected);
      add(n.actuator_retries);
      add(n.actuator_gave_up);
      add(n.skipped_epochs);
      add(n.wakes);
      add(n.lease_renewals);
      add(n.lease_expiries);
      add(n.autonomy_epochs);
      add(n.last_autonomy_epoch);
    }
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
  void add(const std::vector<int>& v) {
    add(v.size());
    for (const int x : v) add(x);
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// The chaos-net schedule of the comms suite (lossy, reordering links
/// and a fleet-wide coordinator partition), scaled to a 40-epoch run.
comms::CommsConfig chaos_net() {
  comms::CommsConfig c;
  c.enabled = true;
  c.lease_epochs = 8;
  c.renew_ahead_epochs = 2;
  c.retry_max_epochs = 4;
  c.network.drop_p = 0.20;
  c.network.reorder_p = 0.50;
  c.network.partition_start_epoch = 10;
  c.network.partition_epochs = 15;
  c.network.partition_node = -1;
  return c;
}

/// The chaos suite's standard fault schedule with every defense armed.
ClusterConfig standard_chaos() {
  ClusterConfig cc;
  cc.seed = 11;
  cc.resilience.sanitize_sensors = true;
  cc.resilience.watchdog.enabled = true;
  cc.resilience.retry.max_attempts = 4;
  cc.resilience.heartbeat.dead_after_epochs = 3;
  cc.faults.enabled = true;
  cc.faults.sensor.dropout_p = 0.05;
  cc.faults.actuator.burst_start_epoch = 10;
  cc.faults.actuator.burst_epochs = 3;
  cc.faults.actuator.burst_fail_p = 0.9;
  cc.faults.node.victim = 1;
  cc.faults.node.crash_epoch = 15;
  cc.faults.node.crash_epochs = 6;
  return cc;
}

struct Golden {
  std::string name;
  ClusterConfig config;
  std::uint64_t digest;
};

/// Golden digests (skipping and churn off) on 4 fake-model nodes over
/// 40 epochs.
std::vector<Golden> goldens() {
  const cluster::CoordinatorKind kinds[] = {
      cluster::CoordinatorKind::kStaticEqual,
      cluster::CoordinatorKind::kDemandProportional,
      cluster::CoordinatorKind::kSlackHarvest};
  const char* kind_names[] = {"static-equal", "demand-proportional",
                              "slack-harvest"};
  const char* transport_names[] = {"direct", "zero-fault comms",
                                   "chaos-net"};
  const std::uint64_t digests[3][2] = {
      // direct, chaos-net
      {0x84c32e7994e4155dULL, 0x111eaa3bf497fe75ULL},
      {0x4acd1142d7a2dd16ULL, 0x7365da9e5aafc92cULL},
      {0xe0e8e84b380d9816ULL, 0x280c75910cdc5938ULL},
  };
  std::vector<Golden> out;
  for (int k = 0; k < 3; ++k) {
    for (int transport = 0; transport < 3; ++transport) {
      ClusterConfig cc;
      cc.seed = 21;
      cc.threads = 2;
      cc.coordinator = kinds[k];
      if (transport == 1) cc.comms.enabled = true;  // network all-zero
      if (transport == 2) cc.comms = chaos_net();
      // The zero-fault row must reproduce the direct digest.
      out.push_back({std::string(kind_names[k]) + "/" +
                         transport_names[transport],
                     cc, digests[k][transport == 2 ? 1 : 0]});
    }
  }
  out.push_back({"standard-chaos", standard_chaos(), 0xcb0748705cccf4b2ULL});
  return out;
}

TEST(FleetTwin, NoSkipNoChurnIsBitIdenticalToLockstep) {
  for (const Golden& g : goldens()) {
    SCOPED_TRACE(g.name);
    FleetConfig fc;
    fc.cluster = g.config;  // quiescence + churn default off
    FleetSim fleet(fake_fleet(4, 40), fc);
    const FleetResult actual = fleet.run();
    EXPECT_EQ(ResultDigest(actual.cluster).value(), g.digest)
        << std::hex << "digest 0x" << ResultDigest(actual.cluster).value();
    EXPECT_EQ(actual.cluster.epochs, 40);
    // Skipping off without churn: nothing sleeps, no event is queued.
    EXPECT_EQ(actual.total_skipped_epochs, 0u);
    EXPECT_EQ(actual.total_wakes, 0u);
    EXPECT_EQ(actual.events_processed, 0u);
    EXPECT_EQ(actual.cap_revisions, 0u);
    for (const NodeResult& nr : actual.cluster.node_results) {
      EXPECT_EQ(nr.skipped_epochs, 0);
      EXPECT_EQ(nr.wakes, 0);
    }
  }
}

FleetConfig skipping_config(std::uint64_t seed, std::size_t threads) {
  FleetConfig fc;
  fc.cluster.seed = seed;
  fc.cluster.threads = threads;
  fc.quiescence.enabled = true;
  fc.quiescence.min_sleep_epochs = 1;
  fc.quiescence.max_sleep_epochs = 8;
  fc.churn.enabled = true;
  fc.churn.arrival_rate_per_epoch = 0.4;
  fc.churn.mean_size_norm_s = 2.0;
  fc.churn.size_cv = 0.5;
  fc.churn.slots_per_node = 2;
  fc.delta.rebalance_period = 10;
  return fc;
}

void expect_fleet_results_identical(const FleetResult& a,
                                    const FleetResult& b) {
  expect_cluster_results_identical(a.cluster, b.cluster);
  EXPECT_EQ(a.total_skipped_epochs, b.total_skipped_epochs);
  EXPECT_EQ(a.total_wakes, b.total_wakes);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.cap_revisions, b.cap_revisions);
  EXPECT_EQ(a.rebalances, b.rebalances);
  EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.jobs_migrated, b.jobs_migrated);
  EXPECT_EQ(a.mean_job_completion_epochs, b.mean_job_completion_epochs);
  for (std::size_t i = 0; i < a.cluster.node_results.size(); ++i) {
    EXPECT_EQ(a.cluster.node_results[i].skipped_epochs,
              b.cluster.node_results[i].skipped_epochs)
        << "node " << i;
    EXPECT_EQ(a.cluster.node_results[i].wakes,
              b.cluster.node_results[i].wakes)
        << "node " << i;
  }
}

// Same seed, any worker thread count: the engine's queue, churn and
// aggregation are sequential, so skipping + churn must stay
// bit-identical across 1/2/8 threads.
TEST(FleetEngine, EventModeDeterministicAcrossThreadCounts) {
  auto run_with = [](std::size_t threads) {
    FleetSim sim(fake_fleet(4, 40), skipping_config(31, threads));
    return sim.run();
  };
  const FleetResult r1 = run_with(1);
  const FleetResult r2 = run_with(2);
  const FleetResult r8 = run_with(8);
  expect_fleet_results_identical(r1, r2);
  expect_fleet_results_identical(r1, r8);
}

// Accounting invariant: every node-epoch is either stepped or skipped.
TEST(FleetEngine, SteppedPlusSkippedCoversTheRun) {
  FleetSim sim(fake_fleet(5, 40), skipping_config(33, 2));
  const FleetResult r = sim.run();
  EXPECT_EQ(r.cluster.epochs, 40);
  std::uint64_t skipped_sum = 0;
  for (const NodeResult& nr : r.cluster.node_results) {
    EXPECT_EQ(nr.epochs + nr.skipped_epochs, 40) << "node " << nr.node;
    EXPECT_GE(nr.wakes, 0);
    skipped_sum += static_cast<std::uint64_t>(nr.skipped_epochs);
  }
  EXPECT_EQ(skipped_sum, r.total_skipped_epochs);
  // Constant traces with slack: the engine must actually skip work.
  EXPECT_GT(r.total_skipped_epochs, 0u);
  EXPECT_GT(r.skipped_fraction, 0.0);
  EXPECT_LT(r.skipped_fraction, 1.0);
}

// The quiescent fleet must still satisfy the coordinator budget
// invariant every epoch (delta grants bounded by the pool).
TEST(FleetEngine, CapInvariantHoldsUnderSkipping) {
  FleetSim sim(fake_fleet(4, 60), skipping_config(35, 2));
  const FleetResult r = sim.run();
  EXPECT_LE(r.cluster.max_cap_sum_ratio, 1.0 + 1e-9);
  EXPECT_GT(r.cap_revisions, 0u);
  EXPECT_GE(r.rebalances, 6u);  // t=0 plus every rebalance_period
}

TEST(FleetExport, JsonlCarriesEngineAndChurnFields) {
  FleetSim sim(fake_fleet(3, 30), skipping_config(37, 1));
  const FleetResult r = sim.run();

  std::ostringstream os;
  write_fleet_jsonl(r, os);
  std::istringstream is(os.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  // 3 node lines + cluster line + fleet_summary line.
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_NE(lines[0].find("\"skipped_epochs\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"wakes\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"cluster\":true"), std::string::npos);
  EXPECT_NE(lines[3].find("\"skipped_epochs\""), std::string::npos);
  const std::string& fleet_line = lines[4];
  EXPECT_NE(fleet_line.find("\"type\":\"fleet_summary\""), std::string::npos);
  for (const char* field :
       {"\"skipped_fraction\"", "\"events_processed\"", "\"cap_revisions\"",
        "\"jobs_submitted\"", "\"jobs_completed\"", "\"jobs_migrated\"",
        "\"event_queue_peak\"", "\"mean_job_completion_epochs\""}) {
    EXPECT_NE(fleet_line.find(field), std::string::npos) << field;
  }
}

TEST(FleetSim, RunIsOneShot) {
  FleetSim sim(fake_fleet(1, 5), FleetConfig{});
  EXPECT_FALSE(sim.has_run());
  (void)sim.run();
  EXPECT_TRUE(sim.has_run());
  EXPECT_THROW(sim.run(), std::logic_error);
}

}  // namespace
}  // namespace sturgeon::fleet
