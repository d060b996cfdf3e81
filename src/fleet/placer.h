// Online slot placement for churn jobs.
//
// Node i always runs workload spec i; churn jobs arrive one at a time
// on top and need an O(log N) "which node hosts this job" answer
// against the live occupancy state. SlotPlacer keeps per-free-slot-count
// buckets of node ids (ordered sets, ties toward the lower id) and
// speaks the PlacementKind vocabulary of cluster/placement.h:
//
//   worst-fit     node with the most free BE slots (spread load);
//   bin-pack      node with the fewest free slots that still fits
//                 (consolidate, leave whole nodes idle to quiesce);
//   round-robin   rotating cursor over nodes with a free slot.
//
// All state changes go through claim()/release() so the placer is a
// pure function of the assignment history -- deterministic across
// thread counts because only the sequential engine phases call it.
#pragma once

#include <cstddef>
#include <set>
#include <vector>

#include "cluster/placement.h"

namespace sturgeon::fleet {

class SlotPlacer {
 public:
  SlotPlacer(cluster::PlacementKind kind, int num_nodes, int slots_per_node);

  /// Pick the host for one job, or -1 when no node has a free slot.
  /// `exclude` (e.g. the migration source) is never returned. Does NOT
  /// claim the slot; callers pair every successful pick with claim().
  int pick(int exclude = -1) const;

  void claim(int node);    ///< one slot consumed (must have a free one)
  void release(int node);  ///< one slot freed (must have a claimed one)

  int free_slots(int node) const {
    return free_[static_cast<std::size_t>(node)];
  }
  /// Total free slots fleet-wide.
  long total_free() const { return total_free_; }

 private:
  cluster::PlacementKind kind_;
  int slots_per_node_;
  std::vector<int> free_;                ///< per-node free slot count
  std::vector<std::set<int>> buckets_;   ///< buckets_[f] = nodes with f free
  long total_free_ = 0;
  mutable int cursor_ = 0;  ///< round-robin rotation point
};

}  // namespace sturgeon::fleet
