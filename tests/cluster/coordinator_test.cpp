#include "cluster/coordinator.h"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

namespace sturgeon::cluster {
namespace {

NodeReport report(double budget, double idle, double cap, double power,
                  double slack, bool qos_met,
                  Liveness liveness = Liveness::kAlive, bool rejoined = false) {
  return NodeReport{budget, idle,    cap,      power,
                    slack,  qos_met, liveness, rejoined, {}};
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// Every strategy must preserve: result size == fleet size, each cap at
// or above the node's idle floor, and sum(caps) <= cluster budget.
void expect_invariants(const std::vector<double>& caps,
                       const std::vector<NodeReport>& reports,
                       double budget) {
  ASSERT_EQ(caps.size(), reports.size());
  for (std::size_t i = 0; i < caps.size(); ++i) {
    EXPECT_GE(caps[i], reports[i].idle_w) << "node " << i;
  }
  EXPECT_LE(sum(caps), budget + 1e-9);
}

TEST(Coordinator, StaticEqualSplitsEvenly) {
  auto coord = make_coordinator(CoordinatorKind::kStaticEqual);
  EXPECT_EQ(coord->name(), "static-equal");
  const std::vector<NodeReport> reports = {
      report(120.0, 30.0, 100.0, 90.0, 0.05, true),
      report(120.0, 30.0, 100.0, 40.0, 0.40, true),
      report(120.0, 30.0, 100.0, 70.0, 0.20, true),
  };
  const auto caps = coord->assign(300.0, reports);
  expect_invariants(caps, reports, 300.0);
  for (const double c : caps) EXPECT_DOUBLE_EQ(c, 100.0);
}

TEST(Coordinator, RejectsBadInputs) {
  auto coord = make_coordinator(CoordinatorKind::kStaticEqual);
  EXPECT_THROW(coord->assign(300.0, {}), std::invalid_argument);
  EXPECT_THROW(coord->assign(0.0, {report(120, 30, 100, 50, 0.2, true)}),
               std::invalid_argument);
  EXPECT_THROW(coord->assign(-5.0, {report(120, 30, 100, 50, 0.2, true)}),
               std::invalid_argument);
}

TEST(Coordinator, MakeCoordinatorValidatesConfig) {
  CoordinatorConfig bad;
  bad.alpha = -0.1;
  EXPECT_THROW(make_coordinator(CoordinatorKind::kSlackHarvest, bad),
               std::invalid_argument);
  bad = {};
  bad.beta = bad.alpha;  // donor threshold must exceed receiver threshold
  EXPECT_THROW(make_coordinator(CoordinatorKind::kSlackHarvest, bad),
               std::invalid_argument);
  bad = {};
  bad.donate_fraction = 0.0;
  EXPECT_THROW(make_coordinator(CoordinatorKind::kSlackHarvest, bad),
               std::invalid_argument);
  bad = {};
  bad.min_cap_fraction = 1.0;
  EXPECT_THROW(make_coordinator(CoordinatorKind::kSlackHarvest, bad),
               std::invalid_argument);
}

TEST(Coordinator, DemandProportionalFollowsMeasuredPower) {
  auto coord = make_coordinator(CoordinatorKind::kDemandProportional);
  EXPECT_EQ(coord->name(), "demand-proportional");
  // Same hardware, very different demand: the hot node must out-cap the
  // idle one, and both stay inside [idle, budget].
  const std::vector<NodeReport> reports = {
      report(120.0, 30.0, 100.0, 110.0, 0.02, true),
      report(120.0, 30.0, 100.0, 35.0, 0.50, true),
  };
  const auto caps = coord->assign(180.0, reports);
  expect_invariants(caps, reports, 180.0);
  EXPECT_GT(caps[0], caps[1]);
  EXPECT_LE(caps[0], 120.0 + 1e-9);
}

TEST(Coordinator, DemandProportionalTreatsUnmeasuredAsFullBudget) {
  auto coord = make_coordinator(CoordinatorKind::kDemandProportional);
  // No telemetry yet (never reported): both nodes claim their budget, so
  // equal hardware splits evenly regardless of the garbage power field.
  const std::vector<NodeReport> reports = {
      report(120.0, 30.0, 0.0, 0.0, 0.0, true, Liveness::kNeverReported),
      report(120.0, 30.0, 0.0, 999.0, 0.0, true, Liveness::kNeverReported),
  };
  const auto caps = coord->assign(180.0, reports);
  expect_invariants(caps, reports, 180.0);
  EXPECT_NEAR(caps[0], caps[1], 1e-9);
}

TEST(Coordinator, SlackHarvestFirstEpochProportionalToBudgets) {
  auto coord = make_coordinator(CoordinatorKind::kSlackHarvest);
  EXPECT_EQ(coord->name(), "slack-harvest");
  // Heterogeneous fleet before any measurement: the bigger machine
  // starts with proportionally more of the cluster budget.
  const std::vector<NodeReport> reports = {
      report(200.0, 40.0, 0.0, 0.0, 0.0, true, Liveness::kNeverReported),
      report(100.0, 25.0, 0.0, 0.0, 0.0, true, Liveness::kNeverReported),
  };
  const auto caps = coord->assign(240.0, reports);
  expect_invariants(caps, reports, 240.0);
  EXPECT_NEAR(caps[0] / caps[1], 2.0, 1e-9);
}

TEST(Coordinator, SlackHarvestRebasesWhenReportedCapsExceedBudget) {
  auto coord = make_coordinator(CoordinatorKind::kSlackHarvest);
  // Node 0's report predates a rebalance that moved 20 W of its cap to
  // node 1 (it slept through it), so the reported caps sum past the
  // budget. Evolving from them would oversubscribe; the split re-bases
  // on the node budgets instead.
  const std::vector<NodeReport> reports = {
      report(120.0, 30.0, 100.0, 60.0, 0.15, true),
      report(120.0, 30.0, 100.0, 99.0, 0.02, false),
  };
  const auto caps = coord->assign(180.0, reports);
  expect_invariants(caps, reports, 180.0);
  EXPECT_DOUBLE_EQ(caps[0], 90.0);
  EXPECT_DOUBLE_EQ(caps[1], 90.0);
}

TEST(Coordinator, SlackHarvestMovesWattsFromDonorToStressedNode) {
  CoordinatorConfig config;  // defaults: alpha 0.10, beta 0.20
  auto coord = make_coordinator(CoordinatorKind::kSlackHarvest, config);
  // Node 0: comfortable (big slack, power far under cap) -> donor.
  // Node 1: stressed and pressed against its cap -> receiver.
  const std::vector<NodeReport> reports = {
      report(120.0, 30.0, 100.0, 60.0, 0.45, true),
      report(120.0, 30.0, 80.0, 79.5, 0.02, false),
  };
  const auto caps = coord->assign(180.0, reports);
  expect_invariants(caps, reports, 180.0);
  EXPECT_LT(caps[0], 100.0);  // donated
  EXPECT_GT(caps[1], 80.0);   // granted
  // Donation floor: never below min_cap_fraction * budget.
  EXPECT_GE(caps[0], config.min_cap_fraction * 120.0 - 1e-9);
}

TEST(Coordinator, SlackHarvestSqueezesViolationUnderCap) {
  auto coord = make_coordinator(CoordinatorKind::kSlackHarvest);
  // Node 0 violates QoS while drawing well under its cap: interference,
  // not watts, is its problem, so its cap is tightened toward measured
  // power instead of being granted more.
  const std::vector<NodeReport> reports = {
      report(120.0, 30.0, 110.0, 70.0, -0.10, false),
      report(120.0, 30.0, 70.0, 69.9, 0.15, true),
  };
  const auto caps = coord->assign(180.0, reports);
  expect_invariants(caps, reports, 180.0);
  EXPECT_LT(caps[0], 110.0);
}

TEST(Coordinator, SlackHarvestHealthyPressedNodeExpandsGradually) {
  CoordinatorConfig config;
  auto coord = make_coordinator(CoordinatorKind::kSlackHarvest, config);
  // Node 1 is pressed but healthy: it may grow by at most one headroom
  // margin step per epoch, not leap to its full budget.
  const std::vector<NodeReport> reports = {
      report(120.0, 30.0, 110.0, 50.0, 0.50, true),
      report(120.0, 30.0, 60.0, 59.0, 0.30, true),
  };
  const auto caps = coord->assign(230.0, reports);
  expect_invariants(caps, reports, 230.0);
  EXPECT_GT(caps[1], 60.0);
  EXPECT_LE(caps[1], 60.0 + config.headroom_margin * 120.0 + 1e-9);
}

TEST(Coordinator, SlackHarvestCalmFleetDoesNotRatchetDown) {
  auto coord = make_coordinator(CoordinatorKind::kSlackHarvest);
  // Everyone comfortable, nobody pressed: donations flow straight back,
  // so a calm fleet's caps do not drift toward the floor epoch over
  // epoch.
  const std::vector<NodeReport> reports = {
      report(120.0, 30.0, 90.0, 50.0, 0.40, true),
      report(120.0, 30.0, 90.0, 55.0, 0.35, true),
  };
  const auto caps = coord->assign(180.0, reports);
  expect_invariants(caps, reports, 180.0);
  for (std::size_t i = 0; i < caps.size(); ++i) {
    EXPECT_GE(caps[i], reports[i].cap_w - 1e-9) << "node " << i;
  }
}

TEST(Coordinator, ToStringCoversAllKinds) {
  EXPECT_STREQ(to_string(CoordinatorKind::kStaticEqual), "static-equal");
  EXPECT_STREQ(to_string(CoordinatorKind::kDemandProportional),
               "demand-proportional");
  EXPECT_STREQ(to_string(CoordinatorKind::kSlackHarvest), "slack-harvest");
  EXPECT_STREQ(to_string(Liveness::kNeverReported), "never-reported");
  EXPECT_STREQ(to_string(Liveness::kAlive), "alive");
  EXPECT_STREQ(to_string(Liveness::kDead), "dead");
}

TEST(Coordinator, StaticEqualReclaimsDeadNodeWatts) {
  auto coord = make_coordinator(CoordinatorKind::kStaticEqual);
  const std::vector<NodeReport> reports = {
      report(120.0, 30.0, 100.0, 90.0, 0.05, true),
      report(120.0, 30.0, 100.0, 0.0, 0.0, false, Liveness::kDead),
      report(120.0, 30.0, 100.0, 70.0, 0.20, true),
  };
  const auto caps = coord->assign(300.0, reports);
  expect_invariants(caps, reports, 300.0);
  EXPECT_DOUBLE_EQ(caps[1], 30.0);  // pinned at idle
  // The reclaimed watts split among the living.
  EXPECT_DOUBLE_EQ(caps[0], (300.0 - 30.0) / 2.0);
  EXPECT_DOUBLE_EQ(caps[2], (300.0 - 30.0) / 2.0);
}

TEST(Coordinator, DemandProportionalPinsDeadNodeAtIdle) {
  auto coord = make_coordinator(CoordinatorKind::kDemandProportional);
  // The dead node's stale power_w (it was the hottest) must not hold
  // watts hostage: its cap collapses to idle and the survivors share
  // the rest by demand.
  const std::vector<NodeReport> reports = {
      report(120.0, 30.0, 100.0, 110.0, 0.02, true, Liveness::kDead),
      report(120.0, 30.0, 100.0, 80.0, 0.10, true),
      report(120.0, 30.0, 100.0, 40.0, 0.40, true),
  };
  const auto caps = coord->assign(240.0, reports);
  expect_invariants(caps, reports, 240.0);
  EXPECT_DOUBLE_EQ(caps[0], 30.0);
  EXPECT_GT(caps[1], caps[2]);  // live demand still ranks
}

TEST(Coordinator, SlackHarvestReclaimsDeadCapIntoPool) {
  auto coord = make_coordinator(CoordinatorKind::kSlackHarvest);
  // Node 0 died holding a 100 W cap; node 1 is pressed and stressed.
  // The harvested watts (above node 0's idle floor) must be grantable.
  const std::vector<NodeReport> reports = {
      report(120.0, 30.0, 100.0, 0.0, 0.0, false, Liveness::kDead),
      report(120.0, 30.0, 80.0, 79.5, 0.02, false),
  };
  const auto caps = coord->assign(180.0, reports);
  expect_invariants(caps, reports, 180.0);
  EXPECT_DOUBLE_EQ(caps[0], 30.0);
  EXPECT_GT(caps[1], 80.0);  // granted from the reclaimed pool
}

TEST(Coordinator, SlackHarvestRebasesOnRejoin) {
  auto coord = make_coordinator(CoordinatorKind::kSlackHarvest);
  // A rejoining node's cap_w/power_w predate the outage; the strategy
  // must re-base on budget proportions (re-granting the node its share)
  // instead of evolving from the stale caps.
  std::vector<NodeReport> reports = {
      report(120.0, 30.0, 30.0, 50.0, 0.10, true),
      report(120.0, 30.0, 150.0, 60.0, 0.30, true),
  };
  reports[0].rejoined = true;
  const auto caps = coord->assign(240.0, reports);
  expect_invariants(caps, reports, 240.0);
  // Equal budgets: the rebase splits evenly, not 30/150.
  EXPECT_NEAR(caps[0], caps[1], 1e-9);
}

TEST(HeartbeatTracker, ValidatesConstruction) {
  EXPECT_THROW(HeartbeatTracker(0), std::invalid_argument);
  HeartbeatConfig bad;
  bad.dead_after_epochs = 0;
  EXPECT_THROW(HeartbeatTracker(2, bad), std::invalid_argument);
}

TEST(HeartbeatTracker, StartupIsNeverReportedNotDead) {
  HeartbeatTracker tracker(2);
  std::vector<NodeReport> reports(2, report(120, 30, 100, 50, 0.2, true));
  EXPECT_EQ(tracker.update(0, {-1, -1}, reports), 0);
  EXPECT_EQ(reports[0].liveness, Liveness::kNeverReported);
  EXPECT_EQ(reports[1].liveness, Liveness::kNeverReported);
}

TEST(HeartbeatTracker, DeclaresDeadAfterMissedEpochsAndRecordsOutage) {
  HeartbeatConfig config;
  config.dead_after_epochs = 3;
  HeartbeatTracker tracker(2, config);
  std::vector<NodeReport> reports(2, report(120, 30, 100, 50, 0.2, true));

  // Both beat through epoch 4; node 1 goes silent from epoch 5 on.
  EXPECT_EQ(tracker.update(5, {4, 4}, reports), 0);
  EXPECT_EQ(reports[1].liveness, Liveness::kAlive);

  EXPECT_EQ(tracker.update(6, {5, 4}, reports), 0);   // missed 1
  EXPECT_EQ(tracker.update(7, {6, 4}, reports), 0);   // missed 2
  EXPECT_EQ(tracker.update(8, {7, 4}, reports), 1);   // missed 3 -> dead
  EXPECT_EQ(reports[1].liveness, Liveness::kDead);
  EXPECT_FALSE(reports[1].alive());
  EXPECT_EQ(tracker.currently_dead(), 1);

  // Still dead the next epoch; no double-counted outage.
  EXPECT_EQ(tracker.update(9, {8, 4}, reports), 1);
  EXPECT_TRUE(tracker.completed_outages().empty());

  // Node 1 steps at epoch 9 -> rejoin at the epoch-10 split, outage
  // length = declared-dead epoch 8 to rejoin epoch 10.
  EXPECT_EQ(tracker.update(10, {9, 9}, reports), 0);
  EXPECT_EQ(reports[1].liveness, Liveness::kAlive);
  EXPECT_TRUE(reports[1].rejoined);
  ASSERT_EQ(tracker.completed_outages().size(), 1u);
  EXPECT_EQ(tracker.completed_outages()[0], 2);

  // The rejoined flag is one-shot.
  EXPECT_EQ(tracker.update(11, {10, 10}, reports), 0);
  EXPECT_FALSE(reports[1].rejoined);
}

TEST(HeartbeatTracker, LeaseLapseStampsOneShotRejoinWithoutOutage) {
  // Comms mode: a node whose cap lease expired ran autonomously for a
  // while even though it never missed a heartbeat. When its next
  // message arrives the coordinator must re-base it exactly like a
  // dead->alive rejoin (its cap_w predates the lapse), but WITHOUT
  // recording a recovery outage -- the node was never dead.
  HeartbeatTracker tracker(2);
  std::vector<NodeReport> reports(2, report(120, 30, 100, 50, 0.2, true));
  EXPECT_EQ(tracker.update(1, {0, 0}, reports), 0);
  EXPECT_FALSE(reports[0].rejoined);

  EXPECT_EQ(tracker.update(2, {1, 1}, reports, {false, true}), 0);
  EXPECT_EQ(reports[1].liveness, Liveness::kAlive);
  EXPECT_FALSE(reports[0].rejoined);
  EXPECT_TRUE(reports[1].rejoined);
  EXPECT_TRUE(tracker.completed_outages().empty());

  // One-shot: the flag does not leak into the next epoch (a stale
  // slack-harvest grant must not be re-based twice).
  EXPECT_EQ(tracker.update(3, {2, 2}, reports), 0);
  EXPECT_FALSE(reports[1].rejoined);

  // A node mid-death is NOT stamped rejoined by a lapse flag: the
  // dead->alive transition owns that stamp when the node comes back.
  HeartbeatConfig config;
  config.dead_after_epochs = 2;
  HeartbeatTracker strict(1, config);
  std::vector<NodeReport> one(1, report(120, 30, 100, 50, 0.2, true));
  EXPECT_EQ(strict.update(0, {0}, one), 0);
  EXPECT_EQ(strict.update(3, {0}, one, {true}), 1);  // silent too long
  EXPECT_TRUE(one[0].dead());
  EXPECT_FALSE(one[0].rejoined);
}

TEST(HeartbeatTracker, ResetForgetsStateAndOutages) {
  HeartbeatTracker tracker(1);
  std::vector<NodeReport> reports(1, report(120, 30, 100, 50, 0.2, true));
  tracker.update(0, {-1}, reports);
  tracker.update(4, {0}, reports);  // long silent -> dead
  EXPECT_EQ(tracker.currently_dead(), 1);
  tracker.reset();
  EXPECT_EQ(tracker.currently_dead(), 0);
  EXPECT_TRUE(tracker.completed_outages().empty());
  tracker.update(0, {-1}, reports);
  EXPECT_EQ(reports[0].liveness, Liveness::kNeverReported);
}

}  // namespace
}  // namespace sturgeon::cluster
