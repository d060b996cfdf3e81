// Fleet events: the currency of the event-driven stepping engine.
//
// FleetSim's epoch loop starts every epoch by draining a priority queue
// of events keyed by (time, node, seq). With quiescence skipping on, a
// node with nothing happening -- stable load trace, slack in band, no
// pending faults, no churn -- schedules its next wake and is skipped
// until that epoch arrives or some event (job arrival/finish, cap
// change, rebalance) targets it earlier. With skipping off no node
// sleeps and no rebalance is queued: the only events are churn
// arrivals.
//
// Determinism: the triple key totally orders events. `time` is the
// epoch the event fires, `node` breaks ties across nodes in fleet
// order, and `seq` (a monotone counter stamped at push) breaks ties
// between events targeting the same node in creation order. No clocks,
// no RNG -- the queue's pop order is a pure function of the pushes.
#pragma once

#include <cstdint>

namespace sturgeon::fleet {

enum class EventKind {
  kWake,        ///< scheduled quiescence expiry (load shift / max sleep)
  kJobArrival,  ///< fleet-level: the churn process emits the next job
  kJobFinish,   ///< a sleeping node's earliest job completion lands
  kCapChange,   ///< a rebalance shrank a sleeping node's cap below its
                ///< frozen power draw -- it must wake and re-govern
  kRebalance,   ///< fleet-level: periodic full coordinator re-split
};

const char* to_string(EventKind kind);

/// `node` is the target fleet index, or -1 for fleet-level events
/// (arrivals, rebalances).
struct FleetEvent {
  int time = 0;
  int node = -1;
  std::uint64_t seq = 0;
  EventKind kind = EventKind::kWake;
};

/// Strict weak ordering by (time, node, seq): the queue's pop order.
struct EventAfter {
  bool operator()(const FleetEvent& a, const FleetEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    if (a.node != b.node) return a.node > b.node;
    return a.seq > b.seq;
  }
};

}  // namespace sturgeon::fleet
