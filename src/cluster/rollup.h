// Fleet construction and aggregation for the fleet engine
// (fleet/fleet.h). build_cluster() seeds and warms the nodes and
// resolves the cluster budget; ClusterRollup owns every per-epoch
// cluster instrument and the end-of-run ClusterResult assembly. FleetSim
// feeds it once per epoch in the same order whether quiescence skipping
// is on or off.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "comms/fabric.h"
#include "util/thread_pool.h"

namespace sturgeon::cluster {

/// Copy a run's comms accounting (channel totals, the grant identity,
/// per-node lease counters) out of the fabric into the result; the fleet
/// engine calls it right after finalize.
void fill_comms_results(const comms::CommsFabric& fabric,
                        ClusterResult& result);

/// What build_cluster() assembles: the seeded fleet (models pre-warmed),
/// the cluster telemetry context and the resolved cluster power budget.
struct ClusterBuild {
  std::shared_ptr<telemetry::TelemetryContext> telemetry;
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  double budget_w = 0.0;
  int max_trace_s = 0;  ///< longest node trace (default epoch count)
};

/// Warm every distinct Sturgeon model on `pool`, construct node i from
/// `specs[i]` with a derived seed and a child telemetry context, and
/// resolve the cluster budget. Throws std::invalid_argument on an empty
/// fleet or bad oversubscription; STURGEON_CHECKs that the budget clears
/// the fleet's idle power.
ClusterBuild build_cluster(std::vector<NodeSpec> specs,
                           const ClusterConfig& config, ThreadPool& pool);

/// Per-epoch cluster instruments plus the end-of-run ClusterResult
/// assembly. One instance per run; feed it in epoch order.
class ClusterRollup {
 public:
  ClusterRollup(telemetry::TelemetryContext& telemetry, double budget_w);

  /// Epoch bookkeeping, called once per epoch in this order.
  void begin_epoch();
  void note_dead(int dead_nodes);
  /// Checks the coordinator invariant sum(caps) <= budget (t only
  /// labels the failure message).
  void note_cap_sum(double cap_sum_w, int t);
  void note_power(double fleet_power_w);
  void note_slices(int ls_total, int ls_met, double be_norm_sum);

  double max_cap_sum_ratio() const { return max_cap_sum_ratio_; }

  /// Assemble the ClusterResult: per-node results, fleet QoS/throughput
  /// roll-ups, recovery accounting, fleet.* counter roll-up, final
  /// gauges and flushes.
  ClusterResult finalize(
      int epochs, const std::string& coordinator_name,
      const std::vector<std::unique_ptr<ClusterNode>>& nodes,
      const HeartbeatTracker& heartbeat,
      std::shared_ptr<telemetry::TelemetryContext> telemetry);

 private:
  telemetry::TelemetryContext& telemetry_;
  double budget_w_ = 0.0;

  telemetry::Histogram* power_hist_ = nullptr;
  telemetry::Counter* epoch_counter_ = nullptr;
  telemetry::Counter* overshoot_counter_ = nullptr;
  telemetry::Gauge* power_gauge_ = nullptr;
  telemetry::Gauge* dead_gauge_ = nullptr;
  telemetry::Gauge* ls_qos_gauge_ = nullptr;
  telemetry::Gauge* be_norm_gauge_ = nullptr;
  telemetry::Counter* dead_epochs_counter_ = nullptr;

  double power_sum_ = 0.0;
  double max_ratio_ = 0.0;
  double max_cap_sum_ratio_ = 0.0;
  int overshoot_epochs_ = 0;
  int dead_node_epochs_ = 0;
};

}  // namespace sturgeon::cluster
