// Deterministic, seed-driven fault injection for chaos runs.
//
// A FaultInjector owns the fault schedule for ONE node. Schedules are
// derived from the node's seed through util/rng.h derive_seed streams,
// so a chaos run is bit-reproducible: the same (cluster seed, node id,
// fault config) produces the same faults at the same epochs regardless
// of thread count or wall-clock time. Sensor draws and actuator draws
// come from independent forked generators, so consuming a variable
// number of actuator draws (retries!) never shifts the sensor schedule.
//
// Four fault classes, mirroring what real power-capped fleets see
// (Hydra's noisy power telemetry, CuttleSys' misconfigured decisions):
//
//   sensor    power/latency readings go NaN (dropout), stale (frozen at
//             the previous epoch's value), or spike (multiplied by an
//             outlier factor for a burst of epochs);
//   actuator  individual isolation-tool calls throw ActuatorError, so a
//             ResourceEnforcer::apply() fails transiently or -- when a
//             mid-sequence call fails -- applies partially;
//   node      the node crashes (stops stepping and reporting entirely)
//             or hangs (serves load under the last partition but its
//             control loop stops) for K epochs, then recovers;
//   model     the sample handed to the policy is inflated, stressing
//             the balancer with extra prediction error.
//
// The injector only *decides* faults; consumers (fault::FaultyCpuset,
// cluster::ClusterNode) act on them. With `enabled == false` no
// injector is constructed at all, keeping the epoch hot path clean
// (bench/overhead_fault gates the residual overhead).
#pragma once

#include <cstdint>

#include "util/rng.h"

namespace sturgeon::telemetry {
class MetricsRegistry;
class Counter;
}  // namespace sturgeon::telemetry

namespace sturgeon::fault {

/// Per-epoch, per-signal sensor corruption probabilities.
struct SensorFaultConfig {
  double dropout_p = 0.0;  ///< reading lost: returned as NaN
  double stale_p = 0.0;    ///< reading frozen at the previous epoch's value
  double spike_p = 0.0;    ///< an outlier burst starts this epoch
  double spike_factor = 4.0;   ///< multiplier applied while spiking
  int spike_burst_epochs = 3;  ///< burst length once a spike triggers
};

/// Transient isolation-tool failures (each tool call draws once).
struct ActuatorFaultConfig {
  double fail_p = 0.0;  ///< background per-tool-call failure probability
  /// Deterministic outage window: within [burst_start_epoch,
  /// burst_start_epoch + burst_epochs) tool calls fail with
  /// `burst_fail_p` instead, modelling a flaky driver episode.
  int burst_start_epoch = -1;
  int burst_epochs = 0;
  double burst_fail_p = 0.9;
};

/// Whole-node crash/hang schedule (explicit epochs, not probabilistic:
/// MTTR assertions need a known outage length).
struct NodeFaultConfig {
  int victim = -1;  ///< node id this schedule applies to; -1 = nobody
  int crash_epoch = -1;  ///< first epoch the node is down; -1 = never
  int crash_epochs = 0;  ///< epochs spent down
  int hang_epoch = -1;   ///< first epoch the control loop stalls
  int hang_epochs = 0;   ///< epochs spent hung
};

/// Prediction-error inflation window (stresses Algorithm 2's balancer).
struct ModelFaultConfig {
  int victim = -1;      ///< node id; -1 = every node
  int start_epoch = -1; ///< -1 = never
  int epochs = 0;
  double error_inflation = 1.5;  ///< factor on the sample the policy sees
};

/// Coordinator<->node link perturbation (the comms MessageChannel's
/// fault class). Applied per message send on a per-link injector, so
/// the two directions of a node's link fault independently.
struct NetworkFaultConfig {
  double drop_p = 0.0;       ///< message lost in flight
  double delay_p = 0.0;      ///< message arrives 1..max_delay_epochs late
  int max_delay_epochs = 3;
  double duplicate_p = 0.0;  ///< a second copy of the message is delivered
  /// Delivery order scrambled among messages landing in the same epoch
  /// (per-message probability of getting a random order key).
  double reorder_p = 0.0;
  /// Full partition window: every send on an affected link is dropped
  /// for [partition_start_epoch, partition_start_epoch +
  /// partition_epochs). partition_node selects one node's link pair, or
  /// -1 for every link (the coordinator itself is unreachable).
  int partition_start_epoch = -1;
  int partition_epochs = 0;
  int partition_node = -1;

  /// Whether any perturbation is configured at all. On an all-zero
  /// config every message lands once, in its send epoch, so FleetSim
  /// runs its direct path instead of the message channel.
  bool any() const {
    return drop_p > 0.0 || delay_p > 0.0 || duplicate_p > 0.0 ||
           reorder_p > 0.0 || (partition_start_epoch >= 0 &&
                               partition_epochs > 0);
  }
};

/// What one send drew from the link's fault schedule.
struct LinkFate {
  bool dropped = false;     ///< lost (probabilistic drop or partition)
  bool partitioned = false; ///< dropped specifically by a partition window
  int delay_epochs = 0;     ///< extra epochs before delivery
  bool duplicated = false;  ///< deliver a second copy
  /// Tie-break among messages delivered in the same epoch. Non-reordered
  /// sends get a monotone key (FIFO); a reordered send gets a random one.
  std::uint64_t order_key = 0;
};

/// Deterministic per-link fault schedule for one direction of one
/// coordinator<->node link. Every on_send() consumes a fixed number of
/// RNG draws, so a link's stream position depends only on its own send
/// count -- never on what the faults decided or on other links.
class LinkFaultInjector {
 public:
  /// `seed` should derive from the channel seed and the link identity
  /// (direction, node) so links are independent streams.
  LinkFaultInjector(NetworkFaultConfig config, std::uint64_t seed, int node);

  /// Fate for one message sent at epoch `t`.
  LinkFate on_send(int t);

  /// True while the partition window covers this link at epoch `t`.
  bool partitioned(int t) const;

 private:
  NetworkFaultConfig config_;
  Rng rng_;
  int node_;
  std::uint64_t fifo_key_ = 0;
};

struct FaultConfig {
  bool enabled = false;
  SensorFaultConfig sensor;
  ActuatorFaultConfig actuator;
  NodeFaultConfig node;
  ModelFaultConfig model;

  /// The view node `id` sees: victim-targeted classes (node, model) are
  /// cleared unless this node is the victim.
  FaultConfig for_node(int id) const;
};

/// What the injector did so far (exported as fault.injected.* counters
/// when bound to a registry).
struct InjectorCounts {
  std::uint64_t sensor_dropouts = 0;
  std::uint64_t sensor_stale = 0;
  std::uint64_t sensor_spikes = 0;
  std::uint64_t tool_call_failures = 0;
  std::uint64_t down_epochs = 0;
  std::uint64_t hung_epochs = 0;
  std::uint64_t model_epochs = 0;
};

class FaultInjector {
 public:
  /// `seed` should be derive_seed(node_seed, kFaultStream) so fault
  /// schedules are independent of the server's own load/noise streams.
  FaultInjector(FaultConfig config, std::uint64_t seed);

  /// Advance the schedule to epoch `t` (call once per epoch, before any
  /// corrupt_*/tool_call_fails queries). Draws the epoch's sensor fates
  /// here, in a fixed order, so query order cannot shift the stream.
  void begin_epoch(int t);

  // -- node faults ---------------------------------------------------
  bool node_down() const { return down_; }
  bool node_hung() const { return hung_; }
  /// True on the first healthy epoch after a crash window (the node
  /// reboots: the server restarts, the policy re-initializes).
  bool rebooted_this_epoch() const { return rebooted_; }

  // -- sensor faults (call at most once per signal per epoch) --------
  double corrupt_power_w(double raw);
  double corrupt_latency_ms(double raw);

  // -- actuator faults (one draw per isolation tool call) ------------
  bool tool_call_fails();

  // -- model faults ---------------------------------------------------
  /// 1.0 outside the configured window.
  double model_error_inflation() const;

  const FaultConfig& config() const { return config_; }
  const InjectorCounts& counts() const { return counts_; }

  /// Mirror counts into `fault.injected.*` counters of `registry`
  /// (incremented live as faults fire).
  void bind(telemetry::MetricsRegistry& registry);

 private:
  enum class SensorFate { kClean, kDropout, kStale, kSpike };

  SensorFate draw_sensor_fate(Rng& rng, int& spike_left);
  double corrupt(double raw, SensorFate fate, double& last_raw,
                 bool& has_last);

  FaultConfig config_;
  Rng sensor_rng_;
  Rng actuator_rng_;
  int epoch_ = -1;
  bool down_ = false;
  bool hung_ = false;
  bool rebooted_ = false;
  bool was_down_ = false;
  SensorFate power_fate_ = SensorFate::kClean;
  SensorFate latency_fate_ = SensorFate::kClean;
  int power_spike_left_ = 0;
  int latency_spike_left_ = 0;
  double last_power_raw_ = 0.0;
  double last_latency_raw_ = 0.0;
  bool has_last_power_ = false;
  bool has_last_latency_ = false;
  InjectorCounts counts_;
  telemetry::Counter* sensor_counter_ = nullptr;
  telemetry::Counter* tool_counter_ = nullptr;
  telemetry::Counter* down_counter_ = nullptr;
  telemetry::Counter* model_counter_ = nullptr;
};

/// derive_seed stream label separating fault schedules from the node's
/// other RNG consumers.
inline constexpr std::uint64_t kFaultStream = 0xFA;

}  // namespace sturgeon::fault
