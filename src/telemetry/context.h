// One handle for everything a run observes.
//
// TelemetryContext bundles the metrics registry, the span tracer, and
// the per-interval CSV recorder so callers stop hand-assembling Monitor
// + Recorder pairs: the node runtime wires a single context through the
// policy, the controller internals, and the exporters, and every
// layer reports through the same interface (identical schemas across
// Sturgeon and the baselines).
//
// Construction goes through two factories:
//   TelemetryContext::noop()  -- the default null sink: metrics are kept
//     (they are cheap), tracing and CSV recording are off, nothing is
//     written anywhere. Every Policy owns one from birth so telemetry
//     calls never need a null check.
//   TelemetryContext::make(machine, config) -- a live context; tracing,
//     CSV rows and file sinks (JSONL trace, CSV) switch on per config.
//
// flush() writes the configured file sinks and is safe to call multiple
// times and on early-exit paths: a partially-recorded run still produces
// valid CSV/JSONL output. Sink failures (unopenable path, disk full /
// short write) do not throw: flush() returns false and increments the
// telemetry.export.errors counter, so a long chaos run survives a broken
// sink and the loss is still visible in the metrics snapshot.
#pragma once

#include <memory>
#include <ostream>
#include <string>

#include "telemetry/metrics.h"
#include "telemetry/recorder.h"
#include "telemetry/trace.h"

namespace sturgeon::telemetry {

struct TelemetryConfig {
  bool tracing = false;  ///< collect spans (and phase-duration histograms)
  bool csv = false;      ///< record per-interval TraceRecorder rows
  /// File sinks written by flush(); empty = no file output.
  std::string trace_jsonl_path;
  std::string csv_path;
  /// Injectable microsecond clock for deterministic traces in tests;
  /// empty = monotonic steady clock.
  Tracer::Clock clock;
};

class TelemetryContext {
 public:
  /// Null sink: metrics only, no tracing, no CSV rows, no files.
  static std::shared_ptr<TelemetryContext> noop();

  static std::shared_ptr<TelemetryContext> make(const MachineSpec& machine,
                                                TelemetryConfig config = {});

  /// Prefer the factories; public so make_shared can construct.
  TelemetryContext(const MachineSpec& machine, TelemetryConfig config);

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  TraceRecorder& recorder() { return recorder_; }
  const TraceRecorder& recorder() const { return recorder_; }

  bool tracing_enabled() const { return tracer_.enabled(); }
  bool csv_enabled() const { return config_.csv; }
  const TelemetryConfig& config() const { return config_; }
  const MachineSpec& machine() const { return machine_; }

  /// Write configured file sinks (idempotent; early-exit safe). Returns
  /// false -- after bumping telemetry.export.errors -- when any sink
  /// could not be opened or was written short; never throws.
  bool flush();

  void write_trace_jsonl(std::ostream& os) const;
  void write_csv(std::ostream& os) const { recorder_.write_csv(os); }
  void write_summary(std::ostream& os) const;

 private:
  MachineSpec machine_;
  TelemetryConfig config_;
  MetricsRegistry metrics_;
  Tracer tracer_;
  TraceRecorder recorder_;
};

}  // namespace sturgeon::telemetry
