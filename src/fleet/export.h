// Fleet JSONL roll-up: the cluster export (per-node + cluster lines,
// now carrying skipped_epochs/wakes) followed by one fleet_summary
// line with the event-engine and churn accounting, so
// tools/trace_stats.py --fleet can reconcile an event-driven run:
// every node's epochs + skipped_epochs equals the run's epoch count,
// and the fleet line's totals equal the node-line sums.
#pragma once

#include <ostream>
#include <string>

#include "fleet/fleet.h"

namespace sturgeon::fleet {

/// write_cluster_jsonl(result.cluster) plus a final
/// `{"type":"fleet_summary",...}` line, whose last field, `counters`,
/// holds every `fleet.*` counter of the cluster registry (the node
/// counters' roll-up) in name order. Schema stability rules follow
/// telemetry/export.h: append fields, never rename or reorder.
void write_fleet_jsonl(const FleetResult& result, std::ostream& os);

/// File variant; returns false (bumping telemetry.export.errors on the
/// cluster context) when the path cannot be opened or the write comes
/// up short. Never throws.
bool write_fleet_jsonl(const FleetResult& result, const std::string& path);

}  // namespace sturgeon::fleet
