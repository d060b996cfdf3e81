// Cluster power coordination: split one cluster-level power budget into
// per-node caps, re-assigned every 1 s epoch from the fleet's latest
// telemetry (Hydra-style hierarchical budgeting: cluster -> node; each
// node's own policy then keeps the node under its cap).
//
// Three strategies, in ascending awareness:
//   static-equal         every node gets budget / N, forever;
//   demand-proportional  caps follow last-epoch measured power, so idle
//                        nodes stop hoarding provisioned watts;
//   slack-harvesting     nodes with QoS headroom (slack > beta) donate a
//                        fraction of their unused cap into a pool that is
//                        granted to nodes near violation (slack < alpha)
//                        or pressed against their cap -- the cluster-level
//                        analogue of Sturgeon's own harvest loop.
// Every strategy preserves the invariant sum(caps) <= cluster budget and
// floors each cap at the node's idle power (a cap below idle is not
// actionable: the package draws uncore power regardless).
//
// assign() is pure arithmetic over the report vector in node order --
// no RNG, no time -- which is what keeps cluster runs bit-reproducible
// across thread counts.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace sturgeon::cluster {

/// A report's standing with the coordinator. The old single `valid`
/// bool conflated two very different situations: a node that has not
/// reported YET (first epoch: budget conservatively, it is about to
/// draw power) and a node that STOPPED reporting (crashed: budgeting
/// watts to it wastes them, and worse, hides headroom from the live
/// nodes). Strategies treat them oppositely, so the distinction is an
/// explicit enum stamped by the HeartbeatTracker.
enum class Liveness {
  kNeverReported,  ///< no epoch completed yet (startup, not failure)
  kAlive,          ///< reporting normally
  kDead,           ///< missed enough consecutive epochs to be declared dead
};

const char* to_string(Liveness liveness);

/// Per-slice observation inside a NodeReport: how each co-scheduled
/// workload fared last epoch, one entry each (LS then BE).
struct SliceReport {
  bool latency_sensitive = false;
  double slack = 0.0;            ///< LS only; 0 for BE slices
  bool qos_met = true;           ///< LS only; always true for BE slices
  double throughput_norm = 0.0;  ///< BE only; 0 for LS slices
};

/// What one node tells the coordinator about its last epoch.
struct NodeReport {
  double budget_w = 0.0;  ///< node's natural budget (LS-at-peak power)
  double idle_w = 0.0;    ///< package idle power; floor for any cap
  double cap_w = 0.0;     ///< cap that was in force last epoch
  double power_w = 0.0;   ///< measured package power last epoch
  double slack = 0.0;     ///< measured latency slack last epoch
  bool qos_met = true;    ///< last epoch met the QoS target
  Liveness liveness = Liveness::kNeverReported;
  /// First report after a dead spell (stamped by the HeartbeatTracker):
  /// the node's cap_w/power_w predate the outage, so stateful
  /// strategies re-base instead of trusting them.
  bool rejoined = false;
  /// Per-workload roll-up (LS then BE). Empty until the node's first
  /// full epoch.
  std::vector<SliceReport> slices;

  bool alive() const { return liveness == Liveness::kAlive; }
  bool dead() const { return liveness == Liveness::kDead; }
};

enum class CoordinatorKind { kStaticEqual, kDemandProportional, kSlackHarvest };

const char* to_string(CoordinatorKind kind);

struct CoordinatorConfig {
  double alpha = 0.10;  ///< receiver threshold: slack below => needs watts
  double beta = 0.20;   ///< donor threshold: slack above => has headroom
  /// Fraction of a donor's measured cap headroom moved into the pool per
  /// epoch (0.5 mirrors the balancer's binary-harvest granularity).
  double donate_fraction = 0.5;
  /// Headroom kept above measured power when donating, and targeted when
  /// granting, as a fraction of the node's own budget (absorbs sensor
  /// noise and one epoch of load drift).
  double headroom_margin = 0.04;
  /// No donation may push a cap below this fraction of the node budget.
  double min_cap_fraction = 0.30;
};

class PowerCoordinator {
 public:
  virtual ~PowerCoordinator() = default;

  virtual std::string name() const = 0;

  /// Per-node caps for the next epoch. `reports` is indexed by node, in
  /// the fleet's fixed order; the result has the same size and sums to
  /// at most `cluster_budget_w` (up to rounding). Deterministic.
  virtual std::vector<double> assign(
      double cluster_budget_w, const std::vector<NodeReport>& reports) = 0;

  /// Forget inter-epoch state (new run). Default: stateless.
  virtual void reset() {}
};

std::unique_ptr<PowerCoordinator> make_coordinator(
    CoordinatorKind kind, CoordinatorConfig config = {});

struct HeartbeatConfig {
  /// Missed consecutive epochs before a silent node is declared dead.
  /// Short enough that a crashed node's watts return to the pool within
  /// a few control intervals, long enough that one slow epoch does not
  /// trigger a spurious reclamation.
  int dead_after_epochs = 3;
};

/// Coordinator-side liveness bookkeeping: watches which nodes actually
/// completed their step and stamps Liveness/rejoined onto the
/// report vector before each budget split. Dead nodes' caps collapse to
/// their idle floor (the package draws uncore power even crashed), the
/// freed watts rejoin the pool, and a rejoin re-grants them. Completed
/// outage lengths (declared-dead to rejoin) feed recovery.mttr_epochs.
class HeartbeatTracker {
 public:
  explicit HeartbeatTracker(std::size_t nodes, HeartbeatConfig config = {});

  /// Classify the fleet before the epoch-`t` budget split.
  /// `last_step_epoch[i]` is the last epoch node i completed (-1 =
  /// never). Stamps liveness/rejoined on `reports`; returns the number
  /// of currently dead nodes.
  ///
  /// `lease_lapsed` (empty = none) marks nodes whose cap lease expired
  /// since their previous message (comms mode): an alive node that
  /// rejoins under an expired lease gets the same one-shot `rejoined`
  /// stamp as a dead->alive transition, so stateful strategies re-base
  /// instead of leaking a stale slack-harvest grant into the new lease
  /// term. No outage is recorded (the node never went silent).
  int update(int t, const std::vector<int>& last_step_epoch,
             std::vector<NodeReport>& reports,
             const std::vector<bool>& lease_lapsed = {});

  int currently_dead() const { return currently_dead_; }
  /// Epochs from declared-dead to rejoin, one entry per completed
  /// outage (fleet-wide, in detection order).
  const std::vector<int>& completed_outages() const {
    return completed_outages_;
  }

  void reset();

 private:
  HeartbeatConfig config_;
  std::vector<Liveness> state_;
  std::vector<int> declared_dead_epoch_;
  std::vector<int> completed_outages_;
  int currently_dead_ = 0;
};

}  // namespace sturgeon::cluster
