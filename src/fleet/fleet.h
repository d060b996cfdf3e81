// FleetSim: the fleet engine -- N co-location nodes (cluster/node.h)
// under one cluster power budget (cluster/cluster.h), advanced in 1 s
// epochs by one epoch loop (run()).
//
// Each epoch drains a priority queue of events keyed by (time, node,
// seq) (fleet/event.h), beats the heartbeat, sets caps, steps the awake
// nodes in parallel, then runs churn and sleep bookkeeping and sums the
// fleet aggregates. QuiescenceConfig::enabled decides two things only:
//
//   - whether an awake node may go to sleep after its step. At fleet
//     scale (10k nodes, diurnal traces) most node-epochs are control
//     fixed points: the load is where it was, slack is in band, the
//     partition and DVFS level would come out unchanged. Such a node
//     schedules its next wake (trace shift / predicted job finish /
//     max-sleep backstop) and is skipped until it arrives or an
//     external event -- job arrival, cap change from a rebalance --
//     targets it earlier. While asleep, its last power/slice
//     contribution stays frozen in the fleet aggregates.
//   - where caps come from. With skipping off the full coordinator
//     re-splits the budget every epoch (and rebases the delta state);
//     no kRebalance event is queued, so a run without churn queues no
//     event at all. With skipping on a periodic kRebalance event runs
//     the full split, and between rebalances the DeltaCoordinator
//     (fleet/delta_coordinator.h) revises only the awake nodes' caps
//     against a running pool.
//
// Workload churn (fleet/churn.h) runs on top in either mode: a seeded
// deterministic arrival process emits best-effort jobs, placed online
// (fleet/placer.h, reusing the cluster PlacementKind vocabulary) into
// BE slots, drained at each node's measured normalized BE throughput,
// and migrated off nodes showing sustained QoS violation or cap
// pressure. A node whose last job leaves goes LS-only and may quiesce.
//
// Golden contract: with skipping and churn off every node steps every
// epoch, the aggregates are plain node-order sums, and the ClusterResult
// is pinned bit for bit to golden digests (tests/fleet/twin_test.cpp).
// With skipping on the engine is an approximation;
// tests/fleet/skip_error_test.cpp measures its error against the same
// fleet with skipping off: fleet QoS rate within 0.0017, peak power
// ratio within 0.03 (fleet/quiescence.h has the BE-throughput numbers).
// Determinism across worker thread counts holds in every mode (events,
// churn and aggregation are engine-sequential).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/rollup.h"
#include "fleet/churn.h"
#include "fleet/delta_coordinator.h"
#include "fleet/event_queue.h"
#include "fleet/placer.h"
#include "fleet/quiescence.h"

namespace sturgeon::fleet {

struct FleetConfig {
  /// Fleet construction, budget, coordinator strategy, faults,
  /// resilience, comms.
  cluster::ClusterConfig cluster;
  QuiescenceConfig quiescence;
  ChurnConfig churn;
  /// Delta coordination (only consulted when quiescence is enabled;
  /// with skipping off the full strategy runs every epoch).
  DeltaCoordinatorConfig delta;
  /// Online job placement strategy (cluster vocabulary: worst-fit
  /// spreads, bin-pack consolidates so whole nodes can quiesce).
  cluster::PlacementKind job_placement = cluster::PlacementKind::kWorstFit;
};

/// ClusterResult plus the engine's own accounting. With skipping off
/// the skip, wake, cap_revisions and rebalances counters read 0 and
/// events_processed counts churn arrivals only.
struct FleetResult {
  cluster::ClusterResult cluster;
  // -- event engine ---------------------------------------------------
  std::uint64_t total_skipped_epochs = 0;  ///< sum over nodes
  std::uint64_t total_wakes = 0;
  /// skipped node-epochs / (nodes * epochs): the work the engine avoided.
  double skipped_fraction = 0.0;
  /// Events popped from the queue, plus cap-change wakes.
  std::uint64_t events_processed = 0;
  std::size_t event_queue_peak = 0;
  // -- coordinator ----------------------------------------------------
  std::uint64_t cap_revisions = 0;  ///< delta revisions between rebalances
  /// kRebalance full splits (the per-epoch splits with skipping off are
  /// not counted).
  std::uint64_t rebalances = 0;
  // -- churn ----------------------------------------------------------
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_placed = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_migrated = 0;
  std::uint64_t jobs_rejected = 0;
  std::size_t job_queue_peak = 0;
  double mean_job_completion_epochs = 0.0;
  std::size_t jobs_active_at_end = 0;
  std::size_t jobs_queued_at_end = 0;
};

class FleetSim {
 public:
  explicit FleetSim(std::vector<cluster::NodeSpec> specs,
                    FleetConfig config = {});

  /// Advance `epochs` (0 = longest node trace) and aggregate: the one
  /// epoch loop. One-shot: build a new sim (same seed) to replay.
  FleetResult run(int epochs = 0);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  double cluster_budget_w() const { return budget_w_; }
  bool has_run() const { return ran_; }
  cluster::ClusterNode& node(std::size_t i) { return *nodes_.at(i); }
  const ChurnEngine& churn() const { return churn_; }

 private:
  // Per-node engine control state (everything the engine needs to know
  // about a node that the node itself does not track).
  struct NodeCtl {
    bool sleeping = false;
    int sleep_from = 0;       ///< first skipped epoch
    int woke_at = -1;         ///< epoch of the most recent wake
    double frozen_rate = 0.0; ///< BE norm rate at sleep time (job drain)
    int skipped = 0;
    int wakes = 0;
    int bad_streak = 0;  ///< consecutive stepped epochs under pressure
    int last_throttle = 0;  ///< governor level after the previous step
    bool never_sleep = false;  ///< fault injector armed
    // Contribution to the fleet aggregates as of the node's last step
    // (frozen while it sleeps).
    double power_w = 0.0;  ///< ground-truth package power
    int ls = 0, ls_met = 0;  ///< LS slices, and of those QoS-met
    double be_norm = 0.0;  ///< normalized BE throughput
  };

  /// Cap node i for epoch t. A new cap that undercuts a sleeper's frozen
  /// draw wakes it to re-govern this epoch (a cap-change wake, counted
  /// as an event).
  void recap(std::size_t i, double cap_w, int t);
  /// Pull a node out of quiescence at epoch `t`: settle its sleep
  /// window (skipped-epoch accounting + frozen-rate job drain) and mark
  /// it steppable. Idempotent for awake nodes.
  void wake_node(std::size_t i, int t);
  /// Route one emitted job: place (waking the host), queue, or reject.
  void route_job(std::uint64_t id, int t);
  /// Post-step churn bookkeeping for node i at epoch t: drain jobs at
  /// the measured BE rate, complete finished ones (freeing slots and
  /// admitting queued jobs), check the migration trigger.
  void churn_post_step(std::size_t i, int t);
  /// Completions on `node`: slot release, queued-job admission, LS-only
  /// transition when the node's last job left.
  void handle_completions(int node, const std::vector<std::uint64_t>& done,
                          int t);
  /// Post-step quiescence decision for an awake node (skipping on only).
  void maybe_sleep(std::size_t i, int t);
  /// Record node i's fresh post-step contribution to the fleet
  /// aggregates (power / slice tallies), replacing its previous one.
  void record_contrib(std::size_t i, const cluster::NodeReport& report,
                      double true_power_w);
  /// Engine accounting into FleetResult + telemetry, then the shared
  /// rollup finalize.
  FleetResult finish(cluster::ClusterRollup& rollup, int epochs);
  /// Measured normalized BE throughput from a report (sum of BE slices).
  static double be_rate(const cluster::NodeReport& report);

  FleetConfig config_;
  std::shared_ptr<telemetry::TelemetryContext> telemetry_;
  /// Comms mode (comms.enabled on a network that can fault): grants and
  /// reports cross the message channel. Null otherwise, a zero-fault
  /// network included; built at run() start.
  std::unique_ptr<comms::CommsFabric> fabric_;
  std::vector<bool> dead_nodes_;  ///< comms scratch: send_grants skip mask
  std::vector<double> caps_;      ///< comms mode: this epoch's desired caps
  std::vector<std::unique_ptr<cluster::ClusterNode>> nodes_;
  std::unique_ptr<cluster::PowerCoordinator> coordinator_;
  cluster::HeartbeatTracker heartbeat_;
  ThreadPool pool_;
  double budget_w_ = 0.0;
  int max_trace_s_ = 0;
  bool ran_ = false;

  EventQueue queue_;
  ChurnEngine churn_;
  SlotPlacer placer_;
  /// Needs the resolved budget, so built after build_cluster().
  std::unique_ptr<DeltaCoordinator> delta_;
  std::vector<NodeCtl> ctl_;
  /// Persistent last-known report per node (stale while asleep).
  std::vector<cluster::NodeReport> reports_;
  std::vector<int> last_steps_;
  std::uint64_t rebalances_ = 0;
  std::uint64_t events_processed_ = 0;
  std::vector<std::size_t> woken_;  ///< step set scratch (fleet order)
};

}  // namespace sturgeon::fleet
