// Incremental power coordination for the quiescence-skipping fleet.
//
// A full PowerCoordinator split re-divides the whole budget from all N
// reports -- O(N) coordinator work, which, run every epoch, defeats the
// point of skipping node steps. The DeltaCoordinator keeps the full
// strategies for *periodic* rebalances (rebase() from a full assign)
// and between them revises only the caps of nodes that actually woke
// and stepped, against a running (cap_sum, pool) pair:
//
//   pressure  (power near cap, or QoS violated)  -> grant from the pool,
//   headroom  (QoS met, power well under cap)    -> shrink toward power,
//   dead                                         -> collapse to idle,
//   rejoin                                       -> re-grant a floor cap.
//
// Per-epoch coordinator cost is O(#woken), sublinear in fleet size when
// most nodes are quiescent. The invariant sum(caps) <= budget holds by
// construction: grants are bounded by the pool, shrinks only enlarge it,
// and every rebase comes from a full strategy that already satisfies it.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/coordinator.h"

namespace sturgeon::fleet {

struct DeltaCoordinatorConfig {
  /// Epochs between full-strategy rebalances (always one at t=0).
  /// 0 = initial split only, deltas forever after.
  int rebalance_period = 32;
  /// Fraction of the node's natural budget granted per pressure event.
  double grant_fraction = 0.25;
  /// Headroom left above measured power when shrinking (fraction of the
  /// node budget), mirroring CoordinatorConfig::headroom_margin.
  double headroom_margin = 0.04;
  /// No shrink may push a cap below this fraction of the node budget.
  double min_cap_fraction = 0.30;
};

class DeltaCoordinator {
 public:
  DeltaCoordinator(DeltaCoordinatorConfig config, double budget_w,
                   std::size_t nodes);

  /// Adopt the caps of a full-strategy assign (rebalance or t=0).
  void rebase(const std::vector<double>& caps);

  /// Revise node i's cap from its fresh post-step report; returns the
  /// new cap. Pure arithmetic in call order -- callers iterate woken
  /// nodes in fleet order so runs stay bit-reproducible.
  double revise(std::size_t i, const cluster::NodeReport& report);

  double cap(std::size_t i) const { return caps_[i]; }
  const std::vector<double>& caps() const { return caps_; }
  double cap_sum() const { return cap_sum_; }
  double pool_w() const { return budget_w_ - cap_sum_; }

  // -- instrumentation ------------------------------------------------
  std::uint64_t revisions() const { return revisions_; }
  std::uint64_t grants() const { return grants_; }
  std::uint64_t shrinks() const { return shrinks_; }

 private:
  DeltaCoordinatorConfig config_;
  double budget_w_;
  std::vector<double> caps_;
  double cap_sum_ = 0.0;
  std::uint64_t revisions_ = 0;
  std::uint64_t grants_ = 0;
  std::uint64_t shrinks_ = 0;
};

}  // namespace sturgeon::fleet
