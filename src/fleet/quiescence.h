// Quiescence policy: when may the fleet engine stop stepping a node?
//
// A node is quiescent when nothing that would change its control
// decisions is on the horizon: its load trace holds inside an epsilon
// band, its QoS slack sits inside the configured band, its governor's
// throttle level is not moving (a constant level held by the relax
// hysteresis is part of the fixed point; a changing one is active
// control), it is not in fault safe-mode and no fault injector is
// armed. Such a node's partition, DVFS level and power draw are fixed
// points of the controller -- re-running the step every epoch just
// re-derives them, which is the cost the event engine skips.
//
// A sleeping node freezes its last power/slice contribution in the
// fleet aggregates and schedules a wake at the earliest of: the next
// trace shift out of the epsilon band, its earliest predicted job
// completion, and a max-sleep backstop. External events (job arrival,
// cap change from a rebalance) wake it earlier: anything larger than
// epsilon / the slack band triggers a real step.
//
// The error this costs is measured, not assumed:
// tests/fleet/skip_error_test.cpp runs a 16-node diurnal fleet with
// skipping off and on (89-97% of node-epochs skipped). The fleet QoS
// guarantee rate moves by <= 0.0017 and the peak fleet power ratio by
// <= 0.03; aggregate BE throughput moves by <= 3.9% with churn on but
// by up to 15.6% with churn off, because per-node means average
// stepped epochs only.
#pragma once

#include "workloads/load_trace.h"

namespace sturgeon::fleet {

struct QuiescenceConfig {
  /// Master switch for skipping. It decides whether an awake node may
  /// sleep after its step, and whether caps come from a full split every
  /// epoch (false: every node steps every epoch; the golden-digest tests
  /// run in this mode) or from kRebalance events plus delta revisions
  /// (true).
  bool enabled = false;
  /// Trace band: a node sleeps only while |load(t') - load(t)| stays
  /// below this; the first epoch outside the band is a scheduled wake.
  double load_epsilon = 0.02;
  /// Required power headroom under the cap: sleep only while
  /// power <= (1 - cap_headroom) * cap, so a frozen draw cannot sit on
  /// the cap edge unobserved.
  double cap_headroom = 0.04;
  /// Backstop: never sleep past this many epochs without a real step.
  int max_sleep_epochs = 64;
  /// Sleeps shorter than this are not worth the event traffic.
  int min_sleep_epochs = 2;
};

/// First epoch s > t with |trace(s) - trace(t)| > epsilon, capped at
/// t + max_sleep. Exploits LoadTrace::at clamping past the end: a trace
/// in its final plateau yields the full max_sleep.
int next_load_shift(const LoadTrace& trace, int t, double epsilon,
                    int max_sleep);

}  // namespace sturgeon::fleet
