// Per-layer cost probes. The fleet engine has no hook around its
// internal layers, so after a run the benchmark calls each layer's
// public functions itself, at the workload's shape (its N node reports,
// its network config, its event-queue depth), and reports the cost per
// call. The run's own call counts come from the results and getters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/node.h"
#include "comms/message.h"
#include "core/predictor.h"
#include "fleet/delta_coordinator.h"
#include "timed_policy.h"

namespace perfbench {

struct ProbeShape {
  std::vector<sturgeon::cluster::NodeReport> reports;
  std::vector<double> idle_w;
  double budget_w = 0.0;
  sturgeon::cluster::CoordinatorKind coordinator =
      sturgeon::cluster::CoordinatorKind::kSlackHarvest;
  sturgeon::cluster::CoordinatorConfig coordinator_config;
  sturgeon::comms::CommsConfig comms;  ///< network the comms probe uses
  std::uint64_t seed = 1;
  std::size_t queue_depth = 1;
  sturgeon::fleet::DeltaCoordinatorConfig delta;
};

/// Median microseconds of one PowerCoordinator::assign over the reports.
double probe_assign_us(const ProbeShape& shape);
/// Median microseconds of one HeartbeatTracker::update over the fleet.
double probe_heartbeat_us(const ProbeShape& shape);
/// Median microseconds of one CommsFabric epoch (collect, send_grants,
/// effective_caps, N reports).
double probe_comms_epoch_us(const ProbeShape& shape);
/// Median nanoseconds of one EventQueue pop + push at queue_depth.
double probe_event_queue_ns(const ProbeShape& shape);
/// Median nanoseconds of one DeltaCoordinator::revise.
double probe_delta_revise_ns(const ProbeShape& shape);
/// Median nanoseconds per uncached model invocation of `predictor`,
/// answering the queries one search makes per candidate configuration.
double probe_predict_ns(const sturgeon::core::Predictor& predictor,
                        double qps_real);

struct StepProbe {
  std::vector<std::int64_t> step_ns;  ///< one per epoch
  std::vector<std::int64_t> self_ns;  ///< step minus its decide
};
/// Step one node of the workload's recipe through `epochs` epochs under
/// `cap_fraction` of its natural budget, timing every ClusterNode::step
/// and its decide().
StepProbe probe_node_step(sturgeon::cluster::NodeSpec spec,
                          std::uint64_t seed, int epochs,
                          double cap_fraction);

}  // namespace perfbench
