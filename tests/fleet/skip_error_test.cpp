// The error quiescence skipping costs, measured. One fake-model fleet on
// phase-offset diurnal traces (diurnal-10k's engine recipe at 16 nodes)
// runs with skipping off and on from the same seed, first without churn
// and then with it, uncapped (oversubscription 1.0, as in diurnal-10k)
// and power-capped (0.90, the ClusterConfig default). Skipping must
// really happen, keep sum(caps) <= budget, and move each fleet outcome
// by less than the bounds below. Every pair prints its measured changes.
//
// The BE-throughput bound is loose with churn off because
// NodeResult::mean_be_throughput_norm averages stepped epochs only: a
// node asleep in the trough of its day, where its BE share is largest,
// drops those epochs from its mean.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "../core/fake_models.h"
#include "core/controller.h"
#include "fleet/fleet.h"
#include "workloads/app_profile.h"

namespace sturgeon::fleet {
namespace {

using cluster::ClusterResult;
using cluster::NodeSpec;

constexpr int kNodes = 16;
constexpr int kEpochs = 200;

/// Bounds on |skipping on - skipping off|: the fleet QoS guarantee rate
/// (absolute), the aggregate BE throughput (relative to skipping off)
/// and the peak fleet power over the budget (absolute).
struct Bounds {
  double qos_rate;
  double be_throughput_rel;
  double peak_power_ratio;
};
constexpr Bounds kChurnOff{0.005, 0.20, 0.05};
constexpr Bounds kChurnOn{0.005, 0.06, 0.05};

std::vector<NodeSpec> diurnal_fleet() {
  LsProfile ls = find_ls("memcached");
  ls.sim_scale = 0.02;  // engine behaviour, not DES fidelity
  const auto& bes = be_catalog();
  std::vector<NodeSpec> specs;
  for (int i = 0; i < kNodes; ++i) {
    NodeSpec spec;
    spec.ls = ls;
    spec.be = bes[static_cast<std::size_t>(i) % bes.size()];
    spec.trace = LoadTrace::diurnal_phased(
        0.18, 0.50, kEpochs, static_cast<double>(i) / kNodes);
    const double qos_ms = ls.qos_target_ms;
    spec.make_policy = [qos_ms](const sim::SimulatedServer& server) {
      return std::make_unique<core::SturgeonController>(
          core::testing::fake_predictor(server.machine()), qos_ms,
          server.power_budget_w());
    };
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// diurnal-10k's engine recipe, with the churn rate scaled to the fleet.
FleetConfig recipe(std::uint64_t seed, double oversubscription,
                   bool skipping, bool churn) {
  FleetConfig fc;
  fc.cluster.seed = seed;
  fc.cluster.threads = 2;
  fc.cluster.coordinator = cluster::CoordinatorKind::kSlackHarvest;
  fc.cluster.oversubscription = oversubscription;
  fc.cluster.governor.relax_margin = 0.90;
  fc.quiescence.enabled = skipping;
  fc.quiescence.load_epsilon = 0.12;
  fc.quiescence.cap_headroom = 0.02;
  fc.quiescence.max_sleep_epochs = 128;
  fc.churn.enabled = churn;
  fc.churn.arrival_rate_per_epoch = 0.2;
  fc.churn.mean_size_norm_s = 30.0;
  fc.churn.slots_per_node = 4;
  fc.delta.rebalance_period = 64;
  return fc;
}

void expect_skip_error_within(bool churn, const Bounds& bounds) {
  for (const double oversubscription : {1.0, 0.90}) {
    for (const std::uint64_t seed : {101u, 202u, 303u}) {
      SCOPED_TRACE(::testing::Message()
                   << "oversubscription " << oversubscription << " seed "
                   << seed);
      FleetSim off_sim(diurnal_fleet(),
                       recipe(seed, oversubscription, false, churn));
      const FleetResult off = off_sim.run();
      FleetSim on_sim(diurnal_fleet(),
                      recipe(seed, oversubscription, true, churn));
      const FleetResult on = on_sim.run();
      const ClusterResult& a = off.cluster;
      const ClusterResult& b = on.cluster;

      EXPECT_EQ(off.total_skipped_epochs, 0u);
      EXPECT_GT(on.skipped_fraction, 0.5);
      EXPECT_LE(a.max_cap_sum_ratio, 1.0 + 1e-9);
      EXPECT_LE(b.max_cap_sum_ratio, 1.0 + 1e-9);
      if (churn) {
        EXPECT_GT(off.jobs_completed, 0u);
        EXPECT_GT(on.jobs_completed, 0u);
      }

      const double qos =
          std::abs(b.fleet_qos_guarantee_rate - a.fleet_qos_guarantee_rate);
      const double be =
          std::abs(b.aggregate_be_throughput - a.aggregate_be_throughput) /
          a.aggregate_be_throughput;
      const double peak =
          std::abs(b.max_cluster_power_ratio - a.max_cluster_power_ratio);
      std::fprintf(
          stdout,
          "skip error: churn %d oversubscription %.2f seed %llu: skipped "
          "%.4f, |d qos_rate| %.6f, |d be_throughput|/off %.6f, "
          "|d peak_power_ratio| %.6f\n",
          churn ? 1 : 0, oversubscription,
          static_cast<unsigned long long>(seed), on.skipped_fraction, qos,
          be, peak);
      EXPECT_LT(qos, bounds.qos_rate);
      EXPECT_LT(be, bounds.be_throughput_rel);
      EXPECT_LT(peak, bounds.peak_power_ratio);
    }
  }
}

TEST(FleetSkipError, ChurnOffStaysWithinBounds) {
  expect_skip_error_within(false, kChurnOff);
}

TEST(FleetSkipError, ChurnOnStaysWithinBounds) {
  expect_skip_error_within(true, kChurnOn);
}

}  // namespace
}  // namespace sturgeon::fleet
