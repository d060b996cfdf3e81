// ResourceEnforcer: turns a target <C1,F1,L1;C2,F2,L2> partition into the
// concrete tool actions of Table III -- explicit core lists for cpuset,
// contiguous disjoint way masks for CAT, per-cpuset P-states -- and
// sequences them so co-located apps never overlap mid-transition.
// Controllers above this layer deal only in Partition values.
#pragma once

#include <cstdint>

#include "isolation/controllers.h"
#include "util/types.h"

namespace sturgeon::isolation {

class ResourceEnforcer {
 public:
  /// The enforcer borrows the tool interfaces; `machine` fixes layout.
  ResourceEnforcer(const MachineSpec& machine, CpusetController& cpuset,
                   CatController& cat, FreqDriver& freq);

  /// Apply `target`. LS cores are laid out from core 0 upward and LS ways
  /// from bit 0 upward; BE takes the top of each range, so growth of one
  /// app never collides with the other. Shrinks are staged before grows.
  /// Throws std::invalid_argument unless target.enforceable_on(machine)
  /// (an empty BE slice is allowed).
  void apply(const Partition& target);

  /// The partition most recently applied (or reconstructed by resync()
  /// after a failed apply).
  const Partition& current() const { return current_; }

  /// Verify-after-apply: read the tool state back through the actuator
  /// interfaces and compare against what apply(target) programs. False
  /// means some tool silently dropped or half-applied the request.
  /// Once warm, neither apply() nor verify() allocates: apply() builds
  /// its core lists in per-thread scratch, and verify() reads the tools'
  /// lists in place.
  bool verify(const Partition& target) const;

  /// Rebuild current() from the tools' actual state. Call after an
  /// apply() threw partway (e.g. ActuatorError from a flaky driver):
  /// the shrink-before-grow sequencing of the NEXT apply must be
  /// ordered against reality, not against the stale pre-failure
  /// snapshot, or a transition could momentarily overlap the apps.
  void resync();

  /// Total tool invocations issued (actuation cost metric).
  std::uint64_t actuation_count() const { return actuations_; }

 private:
  MachineSpec machine_;
  CpusetController& cpuset_;
  CatController& cat_;
  FreqDriver& freq_;
  Partition current_;
  std::uint64_t actuations_ = 0;
};

}  // namespace sturgeon::isolation
