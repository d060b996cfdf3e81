// End-to-end churn edge cases through FleetSim: admission at a full
// fleet (queue vs reject), the last-BE-job-leaving -> LS-only ->
// quiescent transition, and migration under sustained pressure. The
// bookkeeping invariants asserted here hold in every mode:
//   submitted == placed + rejected + queued_at_end
//   placed    == completed + active_at_end
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "../core/fake_models.h"
#include "core/controller.h"
#include "fleet/fleet.h"
#include "workloads/app_profile.h"

namespace sturgeon::fleet {
namespace {

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

std::vector<NodeSpec> fake_fleet(int n, int duration_s, double load = 0.35) {
  std::vector<NodeSpec> specs;
  for (int i = 0; i < n; ++i) {
    specs.push_back(fake_spec(LoadTrace::constant(load, duration_s)));
  }
  return specs;
}

void expect_bookkeeping_consistent(const FleetResult& r) {
  EXPECT_EQ(r.jobs_submitted,
            r.jobs_placed + r.jobs_rejected + r.jobs_queued_at_end);
  EXPECT_EQ(r.jobs_placed, r.jobs_completed + r.jobs_active_at_end);
}

// Jobs far bigger than the run can drain, one slot per node: the fleet
// saturates immediately and every later arrival hits a full fleet.
ChurnConfig saturating_churn() {
  ChurnConfig c;
  c.enabled = true;
  c.arrival_rate_per_epoch = 2.0;
  c.mean_size_norm_s = 500.0;
  c.size_cv = 0.1;
  c.slots_per_node = 1;
  c.migrate_after_epochs = 0;  // nowhere to migrate anyway
  return c;
}

TEST(FleetChurn, FullFleetQueuesWhenConfigured) {
  FleetConfig fc;
  fc.cluster.seed = 11;
  fc.cluster.threads = 1;
  fc.churn = saturating_churn();
  fc.churn.queue_when_full = true;
  FleetSim sim(fake_fleet(2, 30), fc);
  const FleetResult r = sim.run();

  expect_bookkeeping_consistent(r);
  EXPECT_EQ(r.jobs_placed, 2u);  // one per slot, held for the whole run
  EXPECT_EQ(r.jobs_rejected, 0u);
  EXPECT_GT(r.jobs_queued_at_end, 0u);
  EXPECT_GE(r.job_queue_peak, r.jobs_queued_at_end);
  EXPECT_EQ(r.jobs_completed, 0u);
  EXPECT_EQ(r.jobs_active_at_end, 2u);
}

TEST(FleetChurn, FullFleetRejectsWhenQueueDisabled) {
  FleetConfig fc;
  fc.cluster.seed = 11;
  fc.cluster.threads = 1;
  fc.churn = saturating_churn();
  fc.churn.queue_when_full = false;
  FleetSim sim(fake_fleet(2, 30), fc);
  const FleetResult r = sim.run();

  expect_bookkeeping_consistent(r);
  EXPECT_EQ(r.jobs_placed, 2u);
  EXPECT_GT(r.jobs_rejected, 0u);
  EXPECT_EQ(r.job_queue_peak, 0u);
  EXPECT_EQ(r.jobs_queued_at_end, 0u);
}

// Sparse small jobs: nodes repeatedly drain to empty. The engine must
// flip each emptied node to LS-only (be_active false) and let it
// quiesce; BE activity must exactly track job occupancy at end of run.
TEST(FleetChurn, LastJobLeavingGoesLsOnlyAndQuiesces) {
  FleetConfig fc;
  fc.cluster.seed = 13;
  fc.cluster.threads = 2;
  fc.quiescence.enabled = true;
  fc.quiescence.min_sleep_epochs = 1;
  fc.quiescence.max_sleep_epochs = 16;
  fc.churn.enabled = true;
  fc.churn.arrival_rate_per_epoch = 0.08;
  fc.churn.mean_size_norm_s = 1.0;
  fc.churn.size_cv = 0.2;
  fc.churn.slots_per_node = 2;
  FleetSim sim(fake_fleet(2, 120), fc);
  const FleetResult r = sim.run();

  expect_bookkeeping_consistent(r);
  EXPECT_GT(r.jobs_submitted, 0u);
  EXPECT_GT(r.jobs_completed, 0u);
  // BE partition state tracks occupancy: a node holds the all-to-LS
  // partition exactly while it has no jobs.
  for (int i = 0; i < sim.num_nodes(); ++i) {
    EXPECT_EQ(sim.node(static_cast<std::size_t>(i)).be_active(),
              !sim.churn().active_on(i).empty())
        << "node " << i;
  }
  // Drained nodes actually went quiescent, not just idle-stepped.
  EXPECT_GT(r.total_skipped_epochs, 0u);
}

// A starved cluster budget keeps governors throttling; with a short
// migration fuse the engine must evict jobs off pressured hosts and
// keep every list consistent while doing so.
TEST(FleetChurn, SustainedPressureMigratesJobs) {
  FleetConfig fc;
  fc.cluster.seed = 17;
  fc.cluster.threads = 2;
  fc.cluster.oversubscription = 0.55;  // heavy power starvation
  fc.quiescence.enabled = true;
  fc.quiescence.min_sleep_epochs = 1;
  fc.churn.enabled = true;
  fc.churn.arrival_rate_per_epoch = 0.8;
  fc.churn.mean_size_norm_s = 40.0;
  fc.churn.size_cv = 0.3;
  fc.churn.slots_per_node = 2;
  fc.churn.migrate_after_epochs = 3;
  fc.job_placement = cluster::PlacementKind::kBinPack;  // pile onto few
  FleetSim sim(fake_fleet(4, 80, 0.6), fc);
  const FleetResult r = sim.run();

  expect_bookkeeping_consistent(r);
  EXPECT_GT(r.jobs_migrated, 0u);
  EXPECT_LE(r.cluster.max_cap_sum_ratio, 1.0 + 1e-9);
  for (int i = 0; i < sim.num_nodes(); ++i) {
    EXPECT_EQ(sim.node(static_cast<std::size_t>(i)).be_active(),
              !sim.churn().active_on(i).empty())
        << "node " << i;
  }
}

// Churn also runs with skipping off: same invariants, and the run is
// seed-deterministic across thread counts there too.
TEST(FleetChurn, LockstepChurnIsDeterministicAndConsistent) {
  auto run_with = [](std::size_t threads) {
    FleetConfig fc;
    fc.cluster.seed = 19;
    fc.cluster.threads = threads;
    fc.churn.enabled = true;
    fc.churn.arrival_rate_per_epoch = 0.5;
    fc.churn.mean_size_norm_s = 3.0;
    fc.churn.slots_per_node = 2;
    FleetSim sim(fake_fleet(3, 40), fc);
    return sim.run();
  };
  const FleetResult a = run_with(1);
  const FleetResult b = run_with(4);
  expect_bookkeeping_consistent(a);
  EXPECT_GT(a.jobs_submitted, 0u);
  EXPECT_GT(a.jobs_completed, 0u);
  EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.cluster.fleet_qos_guarantee_rate,
            b.cluster.fleet_qos_guarantee_rate);
  EXPECT_EQ(a.cluster.aggregate_be_throughput,
            b.cluster.aggregate_be_throughput);
  // Skipping off: no node sleeps, and the only events are the queued
  // churn arrivals, the same ones at every thread count.
  EXPECT_EQ(a.total_skipped_epochs, 0u);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_GT(a.events_processed, 0u);
}

}  // namespace
}  // namespace sturgeon::fleet
