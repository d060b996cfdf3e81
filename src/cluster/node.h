// The per-node runtime: one machine's observe/decide/enforce loop as a
// steppable object. run_colocation (below) steps one uncapped node over
// a load trace for every paper figure; the fleet engine
// (fleet::FleetSim) advances N of them per epoch.
// Each node owns its SimulatedServer, isolation stack (SimBackend +
// ResourceEnforcer), policy, telemetry context, and metrics accumulator;
// nothing is shared between nodes except immutable trained models, which
// is what makes the per-epoch step() calls safe to run in parallel.
//
// Power capping: the fleet engine hands the node a cap each epoch
// (set_power_cap). The cap reaches the policy (Sturgeon retargets its
// search budget) AND a node-local reactive governor -- the RAPL
// analogue -- which steps frequencies down (BE slice first, LS last)
// while measured power exceeds the cap and relaxes them when power falls
// comfortably below. The governor is what turns a cap into a hard-ish
// limit even under policies with no power notion; the QoS damage it does
// when forced to throttle the LS slice is exactly the overload cost the
// paper's Fig 2 measures.
//
// Faults and resilience (src/fault): a node may carry a FaultInjector
// whose schedule corrupts its sensors, fails its actuators, crashes or
// hangs the whole node, and inflates the sample its policy sees. The
// matching defenses -- sensor sanitization in front of the governor/
// policy/report, retry-with-verify around the enforcer, a watchdog that
// falls back to the known-safe all-to-LS partition -- are configured
// independently (ResilienceConfig) and default OFF, so fault-free runs
// are bit-identical to the pre-fault code paths.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "core/policy.h"
#include "core/trainer.h"
#include "fault/faulty_tools.h"
#include "fault/injector.h"
#include "fault/retry.h"
#include "fault/sanitizer.h"
#include "fault/watchdog.h"
#include "isolation/enforcer.h"
#include "isolation/sim_backend.h"
#include "telemetry/context.h"
#include "telemetry/monitor.h"
#include "workloads/load_trace.h"

namespace sturgeon::cluster {

/// Everything needed to instantiate one node of the fleet.
struct NodeSpec {
  LsProfile ls;
  BeProfile be;
  LoadTrace trace = LoadTrace::constant(0.5, 1);
  sim::ServerConfig server;  ///< heterogeneous machines/coefficients OK
  /// Profiling campaign for the default Sturgeon policy (must match
  /// across the fleet: one campaign per process, see
  /// exp/model_registry.h).
  core::TrainerConfig trainer;
  /// The node's policy; unset = Sturgeon on the campaign's trained
  /// models. Receives the node's server so the factory can read the
  /// machine spec and natural power budget. Shared, so a caller can keep
  /// owning the policy (run_colocation does).
  std::function<std::shared_ptr<core::Policy>(const sim::SimulatedServer&)>
      make_policy;
};

struct GovernorConfig {
  bool enabled = true;
  /// Relax one throttle step when measured power is at or below this
  /// fraction of the cap. The default (1.0) behaves like an integrator
  /// around the cap -- confiscated levels drain back as soon as the
  /// policy is compliant, so a policy that deliberately sits just below
  /// its cap is not left permanently throttled. Values < 1 trade that
  /// responsiveness for hysteresis.
  double relax_margin = 1.0;
};

/// Which defenses are armed. Everything defaults OFF: with the struct
/// default-constructed a node behaves bit-identically to the
/// pre-resilience runtime (only the always-on heartbeat classification
/// differs, and without faults it never changes a liveness verdict).
struct ResilienceConfig {
  /// Sensor sanitization (last-good-with-decay + median-of-3 + physical
  /// bounds) in front of the governor, the policy and the NodeReport.
  bool sanitize_sensors = false;
  /// Watchdog / safe-mode fallback (enabled flag lives inside).
  fault::WatchdogConfig watchdog;
  /// Retry-with-verify around the enforcer (always constructed; with
  /// max_attempts == 1 it degenerates to a single verified apply).
  fault::RetryConfig retry;
  /// Coordinator-side dead-node detection threshold.
  HeartbeatConfig heartbeat;
};

/// Per-node outcome: what run_colocation returns, and what the fleet
/// roll-up aggregates over every node.
struct NodeResult {
  int node = 0;
  std::string policy;  ///< policy describe() string
  std::string ls;
  std::string be;
  int epochs = 0;
  std::uint64_t total_completed = 0;   ///< LS queries completed
  std::uint64_t total_violations = 0;  ///< of those, QoS-violating
  double qos_guarantee_rate = 0.0;
  double interval_qos_rate = 0.0;
  double mean_be_throughput_norm = 0.0;
  double budget_w = 0.0;    ///< node natural budget
  double mean_cap_w = 0.0;  ///< average coordinator cap over the run
  double max_power_ratio = 0.0;  ///< max measured power / natural budget
  /// Fraction of epochs whose measured power exceeded the natural budget.
  double power_overshoot_fraction = 0.0;
  /// Epochs the governor spent throttling below the policy's choice.
  int throttled_epochs = 0;
  // -- fault/recovery accounting (all zero in fault-free runs) --------
  int epochs_down = 0;      ///< epochs spent crashed
  int epochs_hung = 0;      ///< epochs with a stalled control loop
  int safe_mode_epochs = 0; ///< epochs spent in watchdog safe mode
  int watchdog_trips = 0;
  /// Completed safe-mode episode lengths (trip to clear), for MTTR.
  std::vector<int> safe_mode_episodes;
  std::uint64_t faults_injected = 0;   ///< injector events of any class
  std::uint64_t sensor_rejected = 0;   ///< sanitizer interventions
  std::uint64_t actuator_retries = 0;  ///< extra enforcer attempts
  std::uint64_t actuator_gave_up = 0;  ///< applies abandoned after retries
  // -- quiescence accounting (zero with skipping off) -----------------
  /// Epochs the fleet engine skipped this node while quiescent;
  /// epochs + skipped_epochs == the run's epoch count.
  int skipped_epochs = 0;
  /// Times the engine woke the node out of quiescence (load shift, job
  /// arrival/finish, cap change, rebalance).
  int wakes = 0;
  // -- comms accounting (all zero when comms is disabled) -------------
  std::uint64_t lease_renewals = 0;  ///< cap grants this node adopted
  std::uint64_t lease_expiries = 0;  ///< leased -> autonomous lapses
  std::uint64_t autonomy_epochs = 0; ///< epochs on the fallback cap
  /// Last epoch spent on the autonomous cap (-1 = never); chaos tests
  /// measure reconvergence-after-heal with it.
  int last_autonomy_epoch = -1;
  /// The node's telemetry (child context; rolled up by ClusterRollup).
  std::shared_ptr<telemetry::TelemetryContext> telemetry;
};

class ClusterNode {
 public:
  /// `seed` is the node's derived seed (derive_seed(cluster_seed, id)).
  /// `telemetry` must be non-null (build_cluster makes one child
  /// context per node). `faults` should already be victim-filtered
  /// (FaultConfig::for_node); with faults.enabled == false no injector
  /// is constructed and the fault hooks cost one null check each.
  ClusterNode(int id, NodeSpec spec, std::uint64_t seed,
              std::shared_ptr<telemetry::TelemetryContext> telemetry,
              GovernorConfig governor = {}, ResilienceConfig resilience = {},
              fault::FaultConfig faults = {});

  /// Re-cap the node for the coming epoch (policy budget + governor).
  void set_power_cap(double watts);

  /// Whether the node currently hosts any best-effort work. With BE
  /// inactive (the churn engine drained the node's last job) step()
  /// bypasses the policy and holds the all-to-LS partition: the LS
  /// service keeps serving, the BE slice is empty, and the node draws
  /// LS-only power. Defaults active -- runs without churn never call
  /// this, so pre-fleet behaviour is bit-identical.
  void set_be_active(bool active) { be_active_ = active; }
  bool be_active() const { return be_active_; }

  /// Frequency levels the reactive governor currently confiscates; the
  /// fleet engine keeps throttled nodes awake (cap pressure).
  int governor_throttle() const { return throttle_; }

  /// True when a fault injector is armed: such nodes are never eligible
  /// for quiescence skipping (their fault timeline must advance every
  /// epoch).
  bool has_fault_injector() const { return injector_ != nullptr; }

  /// Advance one epoch at trace time `t`. Thread-safe with
  /// respect to OTHER nodes (no shared mutable state); never call
  /// concurrently on the same node.
  void step(int t);

  /// Telemetry for the coordinator, reflecting the last finished epoch
  /// (the *sanitized* monitor view when sanitization is armed; frozen
  /// while the node is down or hung).
  const NodeReport& report() const { return report_; }

  NodeResult result() const;

  int id() const { return id_; }
  double budget_w() const { return budget_w_; }
  double idle_w() const { return idle_w_; }
  double power_cap_w() const { return cap_w_; }
  /// Ground-truth package power of the last epoch (0 while crashed) --
  /// what the fleet aggregation sums, as opposed to the possibly
  /// fault-corrupted report().power_w the coordinator sees.
  double true_power_w() const { return true_power_w_; }
  /// Last epoch whose control loop completed (-1 before the first):
  /// the heartbeat the fleet engine feeds the HeartbeatTracker. Crashed
  /// and hung epochs do not beat.
  int last_step_epoch() const { return last_step_epoch_; }
  bool in_safe_mode() const { return watchdog_.in_safe_mode(); }
  /// The node's LS load trace (the quiescence policy scans it ahead for
  /// the next shift out of the epsilon band).
  const LoadTrace& trace() const { return spec_.trace; }
  const sim::SimulatedServer& server() const { return server_; }
  core::Policy& policy() { return *policy_; }
  /// Ground-truth run metrics over every served epoch (hung ones too).
  const telemetry::RunMetrics& metrics() const { return metrics_; }

 private:
  /// Apply the governor's current throttle to `p` (BE frequency first,
  /// then LS), returning the partition actually enforced.
  Partition throttled(Partition p) const;
  /// Retarget the policy's budget, or count the dropped cap when the
  /// policy has no power notion (the governor still enforces it).
  void push_cap_to_policy(double watts);
  /// One crashed epoch: the machine is off -- no serving, no power, no
  /// heartbeat, no report.
  void step_down();
  /// One hung epoch: serving continues under the last partition but the
  /// control loop (observe/decide/enforce/report) is stalled.
  void step_hung(int t);

  int id_;
  NodeSpec spec_;
  ResilienceConfig resilience_;
  sim::SimulatedServer server_;
  isolation::SimBackend backend_;
  /// Null unless fault injection is enabled for this node.
  std::unique_ptr<fault::FaultInjector> injector_;
  // Tool decorators sit between the backend and the enforcer; with a
  // null injector they are transparent pass-throughs.
  fault::FaultyCpuset faulty_cpuset_;
  fault::FaultyCat faulty_cat_;
  fault::FaultyFreq faulty_freq_;
  isolation::ResourceEnforcer enforcer_;
  fault::RetryingEnforcer retry_;
  fault::SignalSanitizer power_sanitizer_;
  fault::SignalSanitizer latency_sanitizer_;
  fault::NodeWatchdog watchdog_;
  Partition safe_partition_;  ///< known-safe fallback (all-to-LS)
  /// Last partition handed to the policy (all-to-LS at start): what the
  /// policy sees when the enforcer's current() is not enforceable.
  Partition policy_partition_;
  std::shared_ptr<core::Policy> policy_;
  std::shared_ptr<telemetry::TelemetryContext> telemetry_;
  telemetry::RunMetrics metrics_;
  GovernorConfig governor_;

  double budget_w_ = 0.0;
  double idle_w_ = 0.0;
  double cap_w_ = 0.0;
  double true_power_w_ = 0.0;
  int throttle_ = 0;  ///< frequency levels currently confiscated
  bool be_active_ = true;  ///< false = no BE jobs: hold all-to-LS
  int throttled_epochs_ = 0;
  int epochs_run_ = 0;
  int epochs_down_ = 0;
  int epochs_hung_ = 0;
  int safe_mode_epochs_ = 0;
  int last_step_epoch_ = -1;
  double cap_w_sum_ = 0.0;
  NodeReport report_;

  telemetry::Histogram* p95_hist_ = nullptr;
  telemetry::Histogram* power_hist_ = nullptr;
  telemetry::Histogram* slack_hist_ = nullptr;
  telemetry::Counter* epochs_counter_ = nullptr;
  telemetry::Counter* violations_counter_ = nullptr;
  telemetry::Counter* changes_counter_ = nullptr;
  telemetry::Counter* throttle_counter_ = nullptr;
  telemetry::Counter* safe_mode_counter_ = nullptr;
  telemetry::Counter* cap_unsupported_counter_ = nullptr;
  /// fault.actuator.partition_substitutions: decides that got
  /// policy_partition_ in place of an unenforceable current(). Bound on
  /// first use, so a node that never substitutes registers no counter.
  telemetry::Counter* substitutions_counter_ = nullptr;
  telemetry::Gauge* degraded_gauge_ = nullptr;
  telemetry::Gauge* power_cap_gauge_ = nullptr;  ///< bound on first re-cap
};

struct RunConfig {
  std::uint64_t seed = 1;
  sim::ServerConfig server;
  bool record_trace = false;
  /// Telemetry sink for the run. Null = a fresh private context (metrics
  /// always on; per-interval CSV rows follow record_trace). A context
  /// passed in records rows per its own csv flag.
  std::shared_ptr<telemetry::TelemetryContext> telemetry;
};

/// Run `policy` over `trace` for one LS/BE pair: one ClusterNode with
/// no cap, no governor and no faults, stepped once per trace second.
/// The policy stays the caller's and is reset() before the run. The
/// node's run metrics publish as "run.*" gauges and the context is
/// flushed on every exit path, so a throwing run still leaves valid CSV
/// and JSONL output. Deterministic for a given (seed, trace, policy).
NodeResult run_colocation(const LsProfile& ls, const BeProfile& be,
                          core::Policy& policy, const LoadTrace& trace,
                          const RunConfig& config = {});

}  // namespace sturgeon::cluster
