// Bounded retry with verify-after-apply around a ResourceEnforcer.
//
// One apply(target) attempt can fail two ways: a tool call throws
// isolation::ActuatorError mid-sequence (partial apply), or every call
// "succeeds" but verify() finds the hardware state does not match the
// target. Either way the enforcer is resync()'d from the tools' real
// state -- so the next attempt's shrink-before-grow ordering is
// computed against reality -- and the apply is retried at once, up to
// max_attempts. Nothing waits between attempts: the simulator's epoch
// clock is virtual, and a chaos run of thousands of retries must not
// take wall-clock minutes.
//
// apply() returns false when every attempt failed. The caller keeps
// running under whatever partition the hardware is actually in
// (enforcer.current() after the final resync) -- degraded but
// consistent -- and the failure is visible as fault.actuator.gave_up.
#pragma once

#include <cstdint>
#include <memory>

#include "isolation/enforcer.h"
#include "util/types.h"

namespace sturgeon::telemetry {
class TelemetryContext;
class Counter;
}  // namespace sturgeon::telemetry

namespace sturgeon::fault {

struct RetryConfig {
  int max_attempts = 4;  ///< total attempts per apply (>= 1)
};

struct RetryStats {
  std::uint64_t applies = 0;          ///< apply() calls that changed state
  std::uint64_t retries = 0;          ///< extra attempts beyond the first
  std::uint64_t actuator_errors = 0;  ///< attempts ended by ActuatorError
  std::uint64_t verify_failures = 0;  ///< attempts that applied but failed verify
  std::uint64_t gave_up = 0;          ///< applies abandoned after max_attempts
};

class RetryingEnforcer {
 public:
  RetryingEnforcer(isolation::ResourceEnforcer& inner,
                   RetryConfig config = {});

  /// Attach counters (fault.actuator.*) and the tracer used for the
  /// "enforce.retry" span opened whenever an apply needs more than one
  /// attempt.
  void attach_telemetry(
      const std::shared_ptr<telemetry::TelemetryContext>& context);

  /// Apply `target`, retrying transient failures. Returns true once the
  /// partition is applied AND verified; false after giving up.
  bool apply(const Partition& target);

  const Partition& current() const { return inner_.current(); }
  const RetryStats& stats() const { return stats_; }
  const RetryConfig& config() const { return config_; }

 private:
  isolation::ResourceEnforcer& inner_;
  RetryConfig config_;
  RetryStats stats_;
  std::shared_ptr<telemetry::TelemetryContext> telemetry_;
  telemetry::Counter* retries_counter_ = nullptr;
  telemetry::Counter* verify_counter_ = nullptr;
  telemetry::Counter* gave_up_counter_ = nullptr;
};

}  // namespace sturgeon::fault
