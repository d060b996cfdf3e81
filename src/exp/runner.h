// Co-location experiment runner: drives a policy against the simulated
// server through the isolation layer, exactly as the runtime daemon would
// run on a real node -- policy decisions flow through the ResourceEnforcer
// and the Table III tool interfaces, never directly into the simulator.
//
// Observability: the runner wires ONE TelemetryContext through the whole
// experiment. Each interval is an "epoch" root span with observe/decide/
// enforce child spans (the policy opens its own children under decide);
// per-interval p95/power/slack feed registry histograms; run-level
// metrics publish as "run.*" gauges. The context is flushed on EVERY
// exit path -- an aborted or throwing run still produces valid CSV and
// JSONL output.
#pragma once

#include <cstdint>
#include <memory>

#include "core/policy.h"
#include "telemetry/context.h"
#include "telemetry/monitor.h"
#include "telemetry/recorder.h"
#include "workloads/load_trace.h"

namespace sturgeon::exp {

struct RunConfig {
  std::uint64_t seed = 1;
  sim::ServerConfig server;
  bool record_trace = false;
  /// Telemetry sink for the run. Null = a fresh private context (metrics
  /// always on; per-interval CSV rows follow record_trace). The runner
  /// attaches it to the policy before reset().
  std::shared_ptr<telemetry::TelemetryContext> telemetry;
  /// Abort the run after this many *consecutive* QoS-violating intervals
  /// (0 = never). Partial results and telemetry are still flushed.
  int abort_after_violation_s = 0;
};

struct RunResult {
  // Fig 9 / Fig 10 metrics.
  double qos_guarantee_rate = 0.0;
  double mean_be_throughput_norm = 0.0;
  double interval_qos_rate = 0.0;
  // Power behaviour.
  double power_budget_w = 0.0;
  double power_overshoot_fraction = 0.0;
  double max_power_ratio = 0.0;
  // Early-exit bookkeeping.
  bool aborted = false;      ///< true when the violation guard tripped
  int intervals_run = 0;     ///< intervals actually executed
  /// The run's telemetry context (metrics/trace/recorder), always set.
  std::shared_ptr<telemetry::TelemetryContext> telemetry;
  /// Per-second trace rows when record_trace (or the context's CSV flag)
  /// was on; aliases `telemetry`'s recorder.
  std::shared_ptr<telemetry::TraceRecorder> trace;
};

/// Run `policy` over `trace` for one LS/BE pair. The policy is reset()
/// before the run. Deterministic for a given (seed, trace, policy).
RunResult run_colocation(const LsProfile& ls, const BeProfile& be,
                         core::Policy& policy, const LoadTrace& trace,
                         const RunConfig& config = {});

}  // namespace sturgeon::exp
