// The benchmark's measurement boundary around one node's control cost:
// a Policy decorator that wraps the same SturgeonController a
// ClusterNode would build for itself and times every decide() call --
// its thread CPU time (the cost) and its wall-clock interval (the span
// a traced run writes out).
//
// Installed through NodeSpec::make_policy, so it is present in traced
// and untraced runs alike. Everything observable is forwarded to the
// wrapped controller -- describe(), power caps, the telemetry context,
// last_decision() -- so a decorated node computes bit-identically to an
// undecorated one (the harness checks this with a digest).
//
// The decorator also keeps a telemetry::RunMetrics fed with the sample
// each decide() sees. On nodes without fault injection or sensor
// sanitization that sample is the epoch's ground truth, so its
// power-overshoot fraction is exactly the node's own (ClusterNode does
// not export that statistic).
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/policy.h"
#include "telemetry/monitor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One timed decide() call; `seq` is the node-local decide counter and
/// `t` the epoch when the caller announced it (-1 otherwise).
struct DecideSpan {
  int t = -1;
  std::uint64_t seq = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class TimedPolicy final : public sturgeon::core::Policy {
 public:
  TimedPolicy(std::unique_ptr<sturgeon::core::SturgeonController> inner,
              double budget_w, bool keep_spans, Clock::time_point origin)
      : inner_(std::move(inner)),
        keep_spans_(keep_spans),
        origin_(origin),
        seen_(budget_w) {}

  std::string name() const override { return inner_->name(); }
  std::string describe() const override { return inner_->describe(); }
  void reset() override {
    inner_->reset();
    last_decision_ = inner_->last_decision();
  }
  using Policy::decide;
  sturgeon::Partition decide(const sturgeon::sim::ServerTelemetry& sample,
                             const sturgeon::Partition& current) override {
    return timed_decide(sample, current);
  }
  sturgeon::Allocation decide(const sturgeon::sim::ServerTelemetry& sample,
                              const sturgeon::Allocation& current) override {
    return timed_decide(sample, current);
  }
  bool supports_power_cap() const override {
    return inner_->supports_power_cap();
  }
  void set_power_cap(double watts) override { inner_->set_power_cap(watts); }

  const sturgeon::core::SturgeonController& inner() const { return *inner_; }

  /// Epoch label for the spans of the next decide() (callers that step
  /// the node themselves know it; the fleet engines do not).
  void set_epoch(int t) { epoch_ = t; }

  /// Thread CPU time of every decide() call: the control cost itself,
  /// without the waits that preemption or a neighbouring tenant add.
  const std::vector<std::int64_t>& cpu_ns() const { return cpu_ns_; }
  /// Wall-clock duration of every decide() call.
  const std::vector<std::int64_t>& wall_ns() const { return wall_ns_; }
  const std::vector<DecideSpan>& spans() const { return spans_; }
  const sturgeon::telemetry::RunMetrics& seen() const { return seen_; }

 protected:
  void on_telemetry_attached() override {
    // Non-owning alias: this decorator's base owns the context and
    // outlives the wrapped controller.
    inner_->attach_telemetry(std::shared_ptr<sturgeon::telemetry::TelemetryContext>(
        std::shared_ptr<void>(), &telemetry()));
  }

 private:
  static std::int64_t thread_cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  }

  template <typename Config>
  Config timed_decide(const sturgeon::sim::ServerTelemetry& sample,
                      const Config& current) {
    const Clock::time_point t0 = Clock::now();
    const std::int64_t c0 = thread_cpu_ns();
    Config next = inner_->decide(sample, current);
    const std::int64_t c1 = thread_cpu_ns();
    const Clock::time_point t1 = Clock::now();
    last_decision_ = inner_->last_decision();
    const auto ns = [this](Clock::time_point t) {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
          .count();
    };
    cpu_ns_.push_back(c1 - c0);
    wall_ns_.push_back(ns(t1) - ns(t0));
    if (keep_spans_) {
      spans_.push_back({epoch_, last_decision_.epoch, ns(t0), ns(t1)});
    }
    seen_.observe(sample);
    return next;
  }

  std::unique_ptr<sturgeon::core::SturgeonController> inner_;
  bool keep_spans_;
  Clock::time_point origin_;
  int epoch_ = -1;
  std::vector<std::int64_t> cpu_ns_;
  std::vector<std::int64_t> wall_ns_;
  std::vector<DecideSpan> spans_;
  sturgeon::telemetry::RunMetrics seen_;
};

}  // namespace perfbench
