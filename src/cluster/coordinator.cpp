#include "cluster/coordinator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/check.h"

namespace sturgeon::cluster {

namespace {

void check_inputs(double cluster_budget_w,
                  const std::vector<NodeReport>& reports) {
  if (!(std::isfinite(cluster_budget_w) && cluster_budget_w > 0.0)) {
    throw std::invalid_argument("PowerCoordinator: bad cluster budget");
  }
  if (reports.empty()) {
    throw std::invalid_argument("PowerCoordinator: empty fleet");
  }
  for (const auto& r : reports) {
    STURGEON_CHECK(r.budget_w > 0.0 && r.idle_w >= 0.0 &&
                       r.idle_w < r.budget_w,
                   "PowerCoordinator: bad node report (budget "
                       << r.budget_w << " W, idle " << r.idle_w << " W)");
  }
}

/// Split `budget` proportionally to `weights`, clamping node i into
/// [lo[i], hi[i]] and re-spreading what the clamps cut among the
/// unclamped nodes. Converges in at most n rounds; any residual that no
/// node can absorb stays unallocated (never oversubscribed).
std::vector<double> bounded_proportional(double budget,
                                         const std::vector<double>& weights,
                                         const std::vector<double>& lo,
                                         const std::vector<double>& hi) {
  const std::size_t n = weights.size();
  std::vector<double> caps(n, 0.0);
  std::vector<bool> fixed(n, false);
  double remaining = budget;
  for (std::size_t round = 0; round < n; ++round) {
    double weight_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!fixed[i]) weight_sum += weights[i];
    }
    if (weight_sum <= 0.0) break;
    bool clamped = false;
    double spent = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (fixed[i]) continue;
      const double share = remaining * weights[i] / weight_sum;
      if (share <= lo[i]) {
        caps[i] = lo[i];
        fixed[i] = true;
        clamped = true;
        spent += caps[i];
      } else if (share >= hi[i]) {
        caps[i] = hi[i];
        fixed[i] = true;
        clamped = true;
        spent += caps[i];
      } else {
        caps[i] = share;
      }
    }
    if (!clamped) break;
    remaining -= spent;
    if (remaining <= 0.0) {
      // Floors ate the whole budget: everyone unfixed gets its floor.
      for (std::size_t i = 0; i < n; ++i) {
        if (!fixed[i]) {
          caps[i] = lo[i];
          fixed[i] = true;
        }
      }
      break;
    }
  }
  return caps;
}

/// First-epoch / re-base split (no trustworthy telemetry): caps
/// proportional to each node's natural budget, floored at idle --
/// heterogeneous fleets start with big machines holding proportionally
/// more of the cluster budget. Dead nodes are pinned at their idle
/// floor (lo == hi) so the budget they would have held flows to the
/// live nodes instead.
std::vector<double> budget_proportional_base(
    double cluster_budget_w, const std::vector<NodeReport>& reports) {
  std::vector<double> weights, lo, hi;
  weights.reserve(reports.size());
  lo.reserve(reports.size());
  hi.reserve(reports.size());
  for (const auto& r : reports) {
    weights.push_back(r.budget_w);
    lo.push_back(r.idle_w);
    hi.push_back(r.dead() ? r.idle_w : r.budget_w);
  }
  return bounded_proportional(cluster_budget_w, weights, lo, hi);
}

bool any_dead(const std::vector<NodeReport>& reports) {
  for (const auto& r : reports) {
    if (r.dead()) return true;
  }
  return false;
}

class StaticEqualCoordinator final : public PowerCoordinator {
 public:
  std::string name() const override { return "static-equal"; }

  std::vector<double> assign(
      double cluster_budget_w,
      const std::vector<NodeReport>& reports) override {
    check_inputs(cluster_budget_w, reports);
    const std::size_t n = reports.size();
    if (!any_dead(reports)) {
      const double share = cluster_budget_w / static_cast<double>(n);
      return std::vector<double>(n, share);
    }
    // Dead nodes hold only their idle floor; the rest splits equally
    // among the living ("static" refers to the policy, not to wasting
    // watts on a machine that cannot use them).
    std::vector<double> caps(n, 0.0);
    double reserved = 0.0;
    std::size_t live = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (reports[i].dead()) {
        caps[i] = reports[i].idle_w;
        reserved += caps[i];
      } else {
        ++live;
      }
    }
    const double share = live == 0 ? 0.0
                                   : std::max(0.0, cluster_budget_w -
                                                       reserved) /
                                         static_cast<double>(live);
    for (std::size_t i = 0; i < n; ++i) {
      if (!reports[i].dead()) caps[i] = share;
    }
    return caps;
  }
};

class DemandProportionalCoordinator final : public PowerCoordinator {
 public:
  explicit DemandProportionalCoordinator(CoordinatorConfig config)
      : config_(config) {}

  std::string name() const override { return "demand-proportional"; }

  std::vector<double> assign(
      double cluster_budget_w,
      const std::vector<NodeReport>& reports) override {
    check_inputs(cluster_budget_w, reports);
    std::vector<double> weights, lo, hi;
    weights.reserve(reports.size());
    lo.reserve(reports.size());
    hi.reserve(reports.size());
    for (const auto& r : reports) {
      // Demand = last measured power plus a headroom margin; a node
      // with no sample yet claims its full budget (conservative: it is
      // about to start drawing power), while a dead node is pinned at
      // its idle floor (lo == hi) -- its stale power_w predates the
      // crash and must not hold watts hostage.
      const double demand =
          r.alive() ? std::clamp(
                          r.power_w + config_.headroom_margin * r.budget_w,
                          r.idle_w, r.budget_w)
                    : r.budget_w;
      weights.push_back(demand);
      lo.push_back(r.idle_w);
      hi.push_back(r.dead() ? r.idle_w : r.budget_w);
    }
    return bounded_proportional(cluster_budget_w, weights, lo, hi);
  }

 private:
  CoordinatorConfig config_;
};

class SlackHarvestCoordinator final : public PowerCoordinator {
 public:
  explicit SlackHarvestCoordinator(CoordinatorConfig config)
      : config_(config) {}

  std::string name() const override { return "slack-harvest"; }

  std::vector<double> assign(
      double cluster_budget_w,
      const std::vector<NodeReport>& reports) override {
    check_inputs(cluster_budget_w, reports);
    const std::size_t n = reports.size();
    double allocated = 0.0;
    for (const auto& r : reports) allocated += r.cap_w;

    // Stateful evolution needs trustworthy last-epoch caps fleet-wide.
    // Before any node's first epoch, or on the epoch a node rejoins
    // after an outage (its cap_w/power_w predate the crash), re-base on
    // the budget-proportional split -- which also re-grants a rejoining
    // node its share in one step -- with dead nodes pinned at idle.
    // Likewise when the reported caps sum past the budget: some report
    // predates a cap change (a node asleep through a rebalance, a report
    // late on the wire), and evolving from it would oversubscribe.
    bool rebase = allocated > cluster_budget_w * (1.0 + 1e-9);
    for (const auto& r : reports) {
      rebase = rebase || r.liveness == Liveness::kNeverReported || r.rejoined;
    }
    if (rebase) {
      return budget_proportional_base(cluster_budget_w, reports);
    }

    // Caps evolve from the caps in force last epoch; donations and
    // grants move watts between nodes without changing the fleet total.
    std::vector<double> caps(n);
    for (std::size_t i = 0; i < n; ++i) caps[i] = reports[i].cap_w;

    // Watts the previous assignment left unallocated rejoin the pool.
    double pool = std::max(0.0, cluster_budget_w - allocated);

    // Dead-node reclamation: a crashed node draws only uncore power, so
    // everything above its idle floor is harvested into the pool for
    // the living (and re-granted through the rebase when it rejoins).
    for (std::size_t i = 0; i < n; ++i) {
      if (!reports[i].dead()) continue;
      pool += std::max(0.0, caps[i] - reports[i].idle_w);
      caps[i] = reports[i].idle_w;
    }

    // Donors: healthy slack and measured power comfortably under cap.
    // A node violating QoS *under* its cap is also squeezed: its problem
    // is co-location interference, not watts -- extra watts would only
    // expand the BE side further, while tightening the cap to just above
    // measured power makes the node's own budget-aware policy and the
    // governor shed BE pressure (the paper's power lever in reverse).
    std::vector<double> donation(n, 0.0);
    double donated = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& r = reports[i];
      if (r.dead()) continue;  // already fully harvested above
      const double margin = config_.headroom_margin * r.budget_w;
      const bool comfortable = r.slack > config_.beta && r.qos_met;
      const bool violating_underneath =
          !r.qos_met && r.power_w + margin < caps[i];
      if (!comfortable && !violating_underneath) continue;
      const double floor = std::max(
          r.idle_w, config_.min_cap_fraction * r.budget_w);
      const double headroom = caps[i] - (r.power_w + margin);
      if (headroom <= 0.0) continue;
      const double share =
          violating_underneath ? 1.0 : config_.donate_fraction;
      const double d = std::min(share * headroom,
                                std::max(0.0, caps[i] - floor));
      if (d <= 0.0) continue;
      donation[i] = d;
      caps[i] -= d;
      donated += d;
      pool += d;
    }

    // Receivers: nodes pressed against their cap -- the only nodes whose
    // QoS or throughput more watts can actually improve. A pressed node
    // that is also QoS-stressed may claim the full distance to its
    // natural budget; a healthy pressed node expands one margin step per
    // epoch, so the per-node balancer's feedback keeps pace with the
    // watts arriving (granting the full distance at once lets the policy
    // leap to aggressive co-locations its models have not been corrected
    // on, costing fleet QoS).
    std::vector<double> want(n, 0.0);
    double want_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& r = reports[i];
      if (donation[i] > 0.0) continue;
      if (r.dead()) continue;  // stale power_w cannot express demand
      const double margin = config_.headroom_margin * r.budget_w;
      const bool stressed = r.slack < config_.alpha || !r.qos_met;
      const bool pressed = r.power_w + margin > caps[i];
      if (!pressed) continue;
      double w = std::max(0.0, r.budget_w - caps[i]);
      if (!stressed) w = std::min(w, margin);
      want[i] = w;
      want_sum += want[i];
    }

    double granted = 0.0;
    if (want_sum > 0.0 && pool > 0.0) {
      const double scale = std::min(1.0, pool / want_sum);
      for (std::size_t i = 0; i < n; ++i) {
        const double g = want[i] * scale;
        caps[i] += g;
        granted += g;
      }
    }

    // Un-granted watts flow back to the donors (pro-rata), so a calm
    // fleet does not ratchet its caps toward the floor.
    double leftover = pool - granted;
    if (leftover > 0.0 && donated > 0.0) {
      for (std::size_t i = 0; i < n; ++i) {
        if (donation[i] <= 0.0) continue;
        const double back = std::min(leftover * donation[i] / donated,
                                     reports[i].budget_w - caps[i]);
        caps[i] += std::max(0.0, back);
      }
    }
    last_transfer_w_ = granted;
    return caps;
  }

  void reset() override { last_transfer_w_ = 0.0; }

  /// Watts moved donor->receiver in the last assignment (telemetry).
  double last_transfer_w() const { return last_transfer_w_; }

 private:
  CoordinatorConfig config_;
  double last_transfer_w_ = 0.0;
};

}  // namespace

const char* to_string(Liveness liveness) {
  switch (liveness) {
    case Liveness::kNeverReported: return "never-reported";
    case Liveness::kAlive: return "alive";
    case Liveness::kDead: return "dead";
  }
  return "unknown";
}

const char* to_string(CoordinatorKind kind) {
  switch (kind) {
    case CoordinatorKind::kStaticEqual: return "static-equal";
    case CoordinatorKind::kDemandProportional: return "demand-proportional";
    case CoordinatorKind::kSlackHarvest: return "slack-harvest";
  }
  return "unknown";
}

std::unique_ptr<PowerCoordinator> make_coordinator(CoordinatorKind kind,
                                                   CoordinatorConfig config) {
  if (config.alpha < 0.0 || config.beta <= config.alpha ||
      config.donate_fraction <= 0.0 || config.donate_fraction > 1.0 ||
      config.headroom_margin < 0.0 || config.min_cap_fraction < 0.0 ||
      config.min_cap_fraction >= 1.0) {
    throw std::invalid_argument("make_coordinator: bad configuration");
  }
  switch (kind) {
    case CoordinatorKind::kStaticEqual:
      return std::make_unique<StaticEqualCoordinator>();
    case CoordinatorKind::kDemandProportional:
      return std::make_unique<DemandProportionalCoordinator>(config);
    case CoordinatorKind::kSlackHarvest:
      return std::make_unique<SlackHarvestCoordinator>(config);
  }
  throw std::invalid_argument("make_coordinator: unknown kind");
}

HeartbeatTracker::HeartbeatTracker(std::size_t nodes, HeartbeatConfig config)
    : config_(config),
      state_(nodes, Liveness::kNeverReported),
      declared_dead_epoch_(nodes, -1) {
  if (nodes == 0) {
    throw std::invalid_argument("HeartbeatTracker: empty fleet");
  }
  if (config_.dead_after_epochs < 1) {
    throw std::invalid_argument(
        "HeartbeatTracker: dead_after_epochs must be >= 1");
  }
}

int HeartbeatTracker::update(int t, const std::vector<int>& last_step_epoch,
                             std::vector<NodeReport>& reports,
                             const std::vector<bool>& lease_lapsed) {
  STURGEON_CHECK(last_step_epoch.size() == state_.size() &&
                     reports.size() == state_.size(),
                 "HeartbeatTracker::update: fleet size mismatch");
  STURGEON_CHECK(lease_lapsed.empty() || lease_lapsed.size() == state_.size(),
                 "HeartbeatTracker::update: lease_lapsed size mismatch");
  currently_dead_ = 0;
  for (std::size_t i = 0; i < state_.size(); ++i) {
    // Heartbeat = the node completed its step. `t` is the
    // epoch about to run, so a healthy node's last heartbeat is t-1 and
    // `missed` counts the silent epochs since.
    const int missed = (t - 1) - last_step_epoch[i];
    const bool silent_too_long = missed >= config_.dead_after_epochs;
    const Liveness prev = state_[i];
    Liveness now;
    bool rejoined = false;
    if (silent_too_long) {
      now = Liveness::kDead;
      if (prev != Liveness::kDead) declared_dead_epoch_[i] = t;
    } else if (last_step_epoch[i] < 0) {
      now = Liveness::kNeverReported;  // startup, not failure
    } else {
      now = Liveness::kAlive;
      if (prev == Liveness::kDead) {
        rejoined = true;
        completed_outages_.push_back(t - declared_dead_epoch_[i]);
        declared_dead_epoch_[i] = -1;
      } else if (!lease_lapsed.empty() && lease_lapsed[i]) {
        // Rejoin under an expired lease: the node stayed alive (kept
        // reporting) but ran autonomously in between, so its cap_w /
        // power_w predate the lapse just like an outage. One-shot, no
        // outage recorded.
        rejoined = true;
      }
    }
    state_[i] = now;
    reports[i].liveness = now;
    reports[i].rejoined = rejoined;
    if (now == Liveness::kDead) ++currently_dead_;
  }
  return currently_dead_;
}

void HeartbeatTracker::reset() {
  for (auto& s : state_) s = Liveness::kNeverReported;
  for (auto& e : declared_dead_epoch_) e = -1;
  completed_outages_.clear();
  currently_dead_ = 0;
}

}  // namespace sturgeon::cluster
