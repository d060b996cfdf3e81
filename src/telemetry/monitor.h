// QoS monitoring and experiment metrics. The QosMonitor implements the
// 1 s sampling loop's bookkeeping from Algorithm 1 (slack computation,
// rolling tail-latency view); the RunMetrics accumulator produces the
// evaluation numbers of Figs 9 and 10 (QoS guarantee rate, normalized BE
// throughput, power-overshoot statistics).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "sim/server.h"
#include "util/stats.h"

namespace sturgeon::telemetry {

class MetricsRegistry;

/// Latency slack as defined by Algorithm 1: (target - latency) / target.
/// Negative slack means the QoS target is violated.
double latency_slack(double p95_ms, double target_ms);

/// Rolling view of recent samples used by controllers.
class QosMonitor {
 public:
  explicit QosMonitor(double qos_target_ms, std::size_t window = 8);

  void observe(const sim::ServerTelemetry& sample);

  /// Slack of the most recent sample, or std::nullopt before the first
  /// observe() call (there is no meaningful slack with nothing observed;
  /// the old interface returned a +1 sentinel that callers could silently
  /// mistake for 100% headroom).
  std::optional<double> slack() const;

  /// Most recent sample values.
  double p95_ms() const { return last_p95_ms_; }
  double power_w() const { return last_power_w_; }
  double qps() const { return last_qps_; }

  /// Mean p95 over the rolling window (smoother feedback signal).
  double window_p95_ms() const;

  std::size_t samples_seen() const { return count_; }

 private:
  double qos_target_ms_;
  std::size_t window_;
  std::deque<double> recent_p95_;
  double last_p95_ms_ = 0.0;
  double last_power_w_ = 0.0;
  double last_qps_ = 0.0;
  std::size_t count_ = 0;
};

/// Whole-run accumulator for the evaluation metrics.
class RunMetrics {
 public:
  explicit RunMetrics(double power_budget_w);

  void observe(const sim::ServerTelemetry& sample);

  /// Fraction of completed queries within the QoS target (paper Fig 9).
  double qos_guarantee_rate() const;

  /// Mean normalized BE throughput over the run (paper Fig 10).
  double mean_be_throughput_norm() const;

  /// Fraction of intervals whose package power exceeded the budget.
  double power_overshoot_fraction() const;

  /// Largest observed power / budget ratio.
  double max_power_ratio() const;

  /// Fraction of intervals whose p95 met the target.
  double interval_qos_rate() const;

  std::uint64_t total_completed() const { return completed_; }
  std::uint64_t total_violations() const { return violations_; }
  std::size_t intervals() const { return intervals_; }

  /// Publish the run-level metrics as "run.*" gauges so they appear in
  /// the registry snapshot next to every other instrument.
  void publish(MetricsRegistry& metrics) const;

 private:
  double budget_w_;
  std::uint64_t completed_ = 0;
  std::uint64_t violations_ = 0;
  std::size_t intervals_ = 0;
  std::size_t overshoot_intervals_ = 0;
  std::size_t qos_ok_intervals_ = 0;
  double max_power_ratio_ = 0.0;
  OnlineStats be_thr_;
};

}  // namespace sturgeon::telemetry
