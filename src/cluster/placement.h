// Placement vocabulary: how a scheduler picks a node for a workload.
// fleet::SlotPlacer (fleet/placer.h) places churn jobs with it and
// documents what each kind does.
#pragma once

namespace sturgeon::cluster {

enum class PlacementKind { kRoundRobin, kBinPack, kWorstFit };

}  // namespace sturgeon::cluster
