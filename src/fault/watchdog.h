// Per-node watchdog with a safe-mode fallback.
//
// State machine (two states, hysteresis on both edges):
//
//   HEALTHY --[trip_after consecutive bad epochs]--> SAFE_MODE
//   SAFE_MODE --[clear_after consecutive good epochs]--> HEALTHY
//
// A "bad" epoch is a QoS violation or a cap overshoot beyond a fixed
// tolerance (ClusterNode::step) -- the two signals that mean the
// policy's model of the machine has diverged from reality (crippled
// sensors, a wedged actuator, a mispredicting model). While tripped,
// the node abandons its policy's decisions and enforces the known-safe
// LS-max/BE-min static partition (Partition::all_to_ls: every core, way
// and P-state to the latency-sensitive app, BE parked), trading all
// batch throughput for QoS until the fleet looks sane again. The
// asymmetric thresholds (trip fast, clear slow) prevent flapping when
// the underlying fault is intermittent.
//
// Episode lengths are recorded so recovery time (MTTR) is measurable:
// each completed safe-mode episode feeds the cluster's
// recovery.mttr_epochs histogram.
#pragma once

#include <vector>

namespace sturgeon::fault {

struct WatchdogConfig {
  bool enabled = false;
  int trip_after = 4;   ///< consecutive bad epochs before safe mode
  int clear_after = 6;  ///< consecutive good epochs before exit
};

class NodeWatchdog {
 public:
  explicit NodeWatchdog(WatchdogConfig config = {});

  /// Feed one epoch's health verdict; returns true while in safe mode
  /// (including the epoch the trip happens, so the safe partition is
  /// enforced immediately).
  bool observe(bool qos_violation, bool cap_overshoot);

  bool in_safe_mode() const { return safe_mode_; }
  int trips() const { return trips_; }
  int epochs_in_safe_mode() const { return epochs_in_safe_mode_; }
  /// Lengths (epochs) of completed safe-mode episodes, trip to clear.
  const std::vector<int>& completed_episodes() const { return episodes_; }

  void reset();

 private:
  WatchdogConfig config_;
  bool safe_mode_ = false;
  int bad_streak_ = 0;
  int good_streak_ = 0;
  int episode_epochs_ = 0;
  int trips_ = 0;
  int epochs_in_safe_mode_ = 0;
  std::vector<int> episodes_;
};

}  // namespace sturgeon::fault
