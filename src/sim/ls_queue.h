// Discrete-event M/G/k queue for the latency-sensitive service.
//
// Requests arrive as a Poisson process and are served FCFS by `k`
// identical servers (the cores allocated to the LS slice); per-request
// service demand is lognormal around the mean demand implied by the
// current frequency / cache / interference state. This reproduces the
// mechanism behind real leaf-service tail latency -- queueing delay that
// explodes as utilization approaches 1 -- rather than curve-fitting
// latency, so controllers face the same cliff the paper's testbed shows.
//
// The queue carries state across 1 s controller intervals: requests left
// waiting at an interval boundary are dispatched under the *next*
// interval's configuration, which is what makes sustained overload
// visible to controllers as growing tails, and recovery effective once
// resources are added.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "util/rng.h"

namespace sturgeon::sim {

/// Telemetry for one simulated interval.
struct IntervalStats {
  std::uint64_t arrivals = 0;
  std::uint64_t completed = 0;
  std::uint64_t qos_violations = 0;  ///< completions above the QoS target
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double utilization = 0.0;  ///< busy core-time / available core-time
  std::uint64_t backlog = 0; ///< requests still queued or in service
};

class LsQueueSim {
 public:
  explicit LsQueueSim(std::uint64_t seed);

  /// Simulate `dt_ms` of wall-clock with `servers` cores, Poisson arrival
  /// rate `qps` (per second), mean per-request demand `mean_service_ms`
  /// and lognormal CV `service_cv`. `qos_target_ms` classifies completions.
  ///
  /// Backlogged requests from prior calls are served first; their service
  /// demand is drawn at dispatch time, so a frequency/cache change applies
  /// to the backlog too, as it would on real hardware.
  IntervalStats step(double dt_ms, int servers, double qps,
                     double mean_service_ms, double service_cv,
                     double qos_target_ms);

  /// Drop all queued state (used when (re)initializing an experiment).
  void reset();

  /// Requests waiting plus requests in service past the current time.
  std::uint64_t backlog() const;

 private:
  Rng rng_;
  double now_ms_ = 0.0;
  /// Per-server free times, one entry per server, in no order: a step
  /// reads only their minimum and their multiset.
  std::vector<double> server_free_;
  /// Arrival times of requests waiting for a server (FIFO).
  std::queue<double> waiting_;

  /// Hard cap on the waiting queue so a pathological controller cannot
  /// allocate unbounded memory; overflow arrivals count as violations.
  static constexpr std::size_t kMaxWaiting = 200000;
};

}  // namespace sturgeon::sim
