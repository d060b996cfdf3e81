#include "fleet/delta_coordinator.h"

#include <algorithm>

#include "util/check.h"

namespace sturgeon::fleet {

namespace {

/// Power above this fraction of the cap counts as cap pressure.
constexpr double kPressureRatio = 0.92;
/// Power below this fraction of the cap lets the cap shrink.
constexpr double kShrinkRatio = 0.60;
static_assert(kPressureRatio > kShrinkRatio,
              "the pressure band must sit above the shrink band");

}  // namespace

DeltaCoordinator::DeltaCoordinator(DeltaCoordinatorConfig config,
                                   double budget_w, std::size_t nodes)
    : config_(config), budget_w_(budget_w), caps_(nodes, 0.0) {
  STURGEON_CHECK(budget_w_ > 0.0, "DeltaCoordinator: budget must be > 0");
}

void DeltaCoordinator::rebase(const std::vector<double>& caps) {
  STURGEON_CHECK(caps.size() == caps_.size(),
                 "DeltaCoordinator::rebase: cap vector size mismatch");
  caps_ = caps;
  cap_sum_ = 0.0;
  for (double c : caps_) cap_sum_ += c;
  STURGEON_CHECK(cap_sum_ <= budget_w_ * (1.0 + 1e-9),
                 "DeltaCoordinator::rebase: caps exceed budget ("
                     << cap_sum_ << " > " << budget_w_ << ")");
}

double DeltaCoordinator::revise(std::size_t i,
                                const cluster::NodeReport& r) {
  const double cap = caps_[i];
  double next = cap;
  ++revisions_;
  if (r.dead()) {
    // Crashed: the package still draws uncore power, nothing more.
    next = std::min(cap, r.idle_w);
  } else if (r.rejoined) {
    // Post-outage reports predate the crash; re-grant a floor cap and
    // let pressure revisions grow it back.
    const double floor =
        std::max(r.idle_w, config_.min_cap_fraction * r.budget_w);
    next = std::min(cap + pool_w(), std::max(cap, floor));
  } else if (!r.qos_met || r.power_w > kPressureRatio * cap) {
    const double want =
        std::min(r.budget_w, cap + config_.grant_fraction * r.budget_w);
    next = cap + std::max(0.0, std::min(want - cap, pool_w()));
    if (next > cap) ++grants_;
  } else if (r.alive() && r.power_w < kShrinkRatio * cap) {
    const double floor =
        std::max(r.idle_w, config_.min_cap_fraction * r.budget_w);
    const double target = r.power_w + config_.headroom_margin * r.budget_w;
    next = std::max(floor, std::min(cap, target));
    if (next < cap) ++shrinks_;
  }
  cap_sum_ += next - cap;
  caps_[i] = next;
  return next;
}

}  // namespace sturgeon::fleet
