// Fleet-level configuration and outcome: ClusterConfig describes N
// co-location nodes under one cluster-level power budget, and
// ClusterResult is what a run of the fleet engine (fleet/fleet.h)
// aggregates.
//
// Layering per epoch (with quiescence skipping on, only the awake nodes
// step and caps between rebalances come from delta revisions):
//
//   PowerCoordinator   splits the cluster budget into per-node caps from
//                      the fleet's last-epoch reports (sequential, node
//                      order -- see coordinator.h);
//   ClusterNode.step   each node runs its own policy + governor under
//                      its cap; steps are independent, so the fleet
//                      advances in parallel on the shared ThreadPool;
//   aggregation        cluster power / QoS / throughput roll-ups, again
//                      sequential in node order (cluster/rollup.h).
//
// Determinism: node i's RNG streams derive from derive_seed(cluster
// seed, i); nothing mutable is shared between nodes inside step(); the
// coordinator and the aggregation are sequential. A fleet run is
// therefore bit-identical across thread counts -- tested.
//
// Telemetry: each node gets a child TelemetryContext; the cluster
// context carries "cluster.*" instruments (per-epoch fleet power
// histogram, overshoot counters) and, at end of run, a "fleet.*" roll-up
// summing every node counter.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/node.h"
#include "comms/fabric.h"

namespace sturgeon::cluster {

struct ClusterConfig {
  std::uint64_t seed = 1;
  /// Cluster-level power budget (W). 0 = `oversubscription` times the
  /// sum of the fleet's natural node budgets -- the power-constrained
  /// regime the paper targets, where not every node can run at its own
  /// budget simultaneously.
  double power_budget_w = 0.0;
  double oversubscription = 0.90;
  CoordinatorKind coordinator = CoordinatorKind::kSlackHarvest;
  CoordinatorConfig coordinator_config;
  GovernorConfig governor;
  /// Worker threads for the parallel node step; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Span tracing on the per-node child contexts (cluster-context tracing
  /// follows `telemetry`'s own config).
  bool node_tracing = false;
  /// Cluster-level sink. Null = a fresh private context (metrics only).
  std::shared_ptr<telemetry::TelemetryContext> telemetry;
  /// Per-node defenses (sanitization, watchdog, retry) plus the
  /// coordinator-side heartbeat threshold. Defaults all-off.
  ResilienceConfig resilience;
  /// Fault schedule; each node receives faults.for_node(i). Defaults
  /// disabled (no injector constructed anywhere).
  fault::FaultConfig faults;
  /// Coordinator<->node messaging. Disabled (direct shared-memory
  /// paths) by default; a zero-fault network runs the direct paths too.
  /// With network faults the lease machinery keeps sum(true caps) <=
  /// budget under message loss.
  comms::CommsConfig comms;
};

/// Fleet-level outcome, rolled up over every node's NodeResult.
struct ClusterResult {
  /// Query-weighted QoS guarantee rate over every LS query the fleet
  /// completed: sum(completed - violations) / sum(completed).
  double fleet_qos_guarantee_rate = 0.0;
  /// Sum over nodes of mean normalized BE throughput ("machines' worth"
  /// of batch work the fleet sustained).
  double aggregate_be_throughput = 0.0;
  double cluster_power_budget_w = 0.0;
  /// Fraction of epochs where summed fleet power exceeded the budget.
  double cluster_overshoot_fraction = 0.0;
  /// Largest (fleet power / cluster budget) over the run.
  double max_cluster_power_ratio = 0.0;
  double mean_cluster_power_w = 0.0;
  /// Largest (sum of assigned caps / cluster budget) over the run. The
  /// coordinator contract keeps this <= 1 (up to rounding); asserted
  /// every epoch, surfaced here so chaos tests can check it stayed tight.
  double max_cap_sum_ratio = 0.0;
  /// Node-epochs the heartbeat tracker considered some node dead.
  int dead_node_epochs = 0;
  /// Recovery episode lengths: heartbeat outages (declared-dead to
  /// rejoin) and completed watchdog safe-mode episodes, in epochs. Feeds
  /// the recovery.mttr_epochs histogram.
  std::vector<int> recovery_mttr_epochs;
  /// p95 of recovery_mttr_epochs (0 when there were no episodes).
  double mttr_p95_epochs = 0.0;
  int epochs = 0;
  int nodes = 0;
  std::string coordinator;
  // -- comms accounting (all zero when comms is disabled) -------------
  std::uint64_t comms_sent = 0;       ///< primary messages sent
  std::uint64_t comms_dropped = 0;    ///< lost to drops/partitions
  std::uint64_t comms_delayed = 0;    ///< delivered late
  std::uint64_t comms_duplicated = 0; ///< extra copies delivered
  /// Cap-grant subset; sent == delivered + dropped + in_flight exactly
  /// (trace_stats validates the identity end-to-end).
  std::uint64_t comms_grants_sent = 0;
  std::uint64_t comms_grants_delivered = 0;
  std::uint64_t comms_grants_dropped = 0;
  std::uint64_t comms_grants_in_flight = 0;
  std::uint64_t comms_lease_renewals = 0;
  std::uint64_t comms_lease_expiries = 0;
  std::uint64_t comms_autonomy_epochs = 0;
  std::vector<NodeResult> node_results;
  /// Cluster-level telemetry (cluster.* + fleet.* roll-up), always set.
  std::shared_ptr<telemetry::TelemetryContext> telemetry;
};

}  // namespace sturgeon::cluster
