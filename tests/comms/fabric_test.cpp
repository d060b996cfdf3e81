// CommsFabric on a zero-fault network: the lease protocol runs exactly
// as it does under faults, and a perfect channel delivers every grant
// in its send epoch and every ack one epoch later. So over whole lease
// terms no lease lapses, no node-epoch falls back to the autonomous
// cap, the true cap sum stays within the budget, and every node runs
// its desired cap from the epoch after each grant round. Plus the
// constructor's configuration checks.
#include "comms/fabric.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace sturgeon::comms {
namespace {

constexpr int kNodes = 18;
constexpr double kIdleW = 40.0;
/// Every node's autonomous share: the budget split evenly.
constexpr double kShareW = 80.0;
constexpr double kBudgetW = kNodes * kShareW;

CommsFabric make_fabric(const CommsConfig& config) {
  return CommsFabric(config, 17, kBudgetW,
                     std::vector<cluster::NodeReport>(kNodes),
                     std::vector<double>(kNodes, kIdleW));
}

/// Half the fleet asks for less than its share, half for more (the
/// pattern swaps when `swapped`); the asks sum to just under the budget.
std::vector<double> desired_caps(bool swapped) {
  std::vector<double> caps(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    caps[static_cast<std::size_t>(i)] = (i % 2 == 0) != swapped ? 70.0 : 89.9;
  }
  return caps;
}

TEST(CommsFabric, ZeroFaultNetworkRunsEveryLeaseAtItsDesiredCap) {
  CommsConfig config;  // zero-fault network, 16-epoch terms, renew 4 ahead
  ASSERT_FALSE(config.network.any());
  CommsFabric fabric = make_fabric(config);
  const int term = config.lease_epochs;
  const int epochs = 3 * term;
  const int change = term + term / 4;  // mid-term change of desired caps
  const std::vector<bool> dead(kNodes, false);
  const cluster::NodeReport report;
  bool last_round = false;

  for (int t = 0; t < epochs; ++t) {
    SCOPED_TRACE(t);
    const std::vector<double> desired = desired_caps(t >= change);
    // Grants go out at t = 0, when the desired caps change, and on the
    // first epoch of each renewal window; a grant above a node's share
    // binds once the nodes below theirs have acked, one epoch later.
    const bool grant_round = t == 0 || t == change ||
                             (t + config.renew_ahead_epochs) % term == 0;
    const std::uint64_t grants_before = fabric.grant_stats().sent;
    fabric.collect(t);
    fabric.send_grants(desired, dead, t);
    // A settled lease is not re-sent.
    if (!grant_round && !last_round) {
      EXPECT_EQ(fabric.grant_stats().sent, grants_before);
    }
    last_round = grant_round;
    const std::vector<double>& caps = fabric.effective_caps(t);
    double cap_sum = 0.0;
    for (int i = 0; i < kNodes; ++i) {
      const auto k = static_cast<std::size_t>(i);
      cap_sum += caps[k];
      EXPECT_LE(caps[k], desired[k]) << "node " << i;
      if (!grant_round) {
        EXPECT_EQ(caps[k], desired[k]) << "node " << i;
      }
      fabric.send_report(i, report, t, t);
    }
    // The runtime budget check's tolerance (ClusterRollup::note_cap_sum).
    EXPECT_LE(cap_sum, kBudgetW * (1.0 + 1e-9) + 1e-6);
  }

  EXPECT_EQ(fabric.lease_expiries(), 0u);
  EXPECT_EQ(fabric.autonomy_epochs(), 0u);
  EXPECT_GT(fabric.lease_renewals(), 0u);
  EXPECT_EQ(fabric.stats().dropped, 0u);
  EXPECT_EQ(fabric.stats().delayed, 0u);
  EXPECT_EQ(fabric.stats().duplicated, 0u);
  // Every report of the last epoch is still in flight; every grant
  // landed in its send epoch.
  EXPECT_EQ(fabric.stats().in_flight(), static_cast<std::uint64_t>(kNodes));
  EXPECT_EQ(fabric.grant_stats().in_flight(), 0u);
  EXPECT_EQ(fabric.stale_reports(), 0u);
}

TEST(CommsFabric, ConstructorRejectsBadLeaseConfiguration) {
  const auto rejects = [](auto edit) {
    CommsConfig config;
    edit(config);
    EXPECT_THROW(make_fabric(config), std::invalid_argument);
  };
  rejects([](CommsConfig& c) { c.lease_epochs = 0; });
  rejects([](CommsConfig& c) { c.renew_ahead_epochs = -1; });
  rejects([](CommsConfig& c) { c.renew_ahead_epochs = c.lease_epochs; });
  rejects([](CommsConfig& c) { c.retry_max_epochs = 0; });
  // The edges of each range are accepted.
  CommsConfig edge;
  edge.lease_epochs = 1;
  edge.renew_ahead_epochs = 0;
  edge.retry_max_epochs = 1;
  EXPECT_NO_THROW(make_fabric(edge));
}

}  // namespace
}  // namespace sturgeon::comms
