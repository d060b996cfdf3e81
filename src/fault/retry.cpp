#include "fault/retry.h"

#include <optional>
#include <stdexcept>

#include "telemetry/context.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace sturgeon::fault {

RetryingEnforcer::RetryingEnforcer(isolation::ResourceEnforcer& inner,
                                   RetryConfig config)
    : inner_(inner), config_(config) {
  if (config_.max_attempts < 1) {
    throw std::invalid_argument("RetryingEnforcer: bad retry config");
  }
}

void RetryingEnforcer::attach_telemetry(
    const std::shared_ptr<telemetry::TelemetryContext>& context) {
  telemetry_ = context;
  if (telemetry_ == nullptr) {
    retries_counter_ = verify_counter_ = gave_up_counter_ = nullptr;
    return;
  }
  auto& registry = telemetry_->metrics();
  retries_counter_ = &registry.counter("fault.actuator.retries");
  verify_counter_ = &registry.counter("fault.actuator.verify_failures");
  gave_up_counter_ = &registry.counter("fault.actuator.gave_up");
}

bool RetryingEnforcer::apply(const Partition& target) {
  ++stats_.applies;
  std::optional<telemetry::Span> retry_span;
  int attempts = 0;
  bool ok = false;
  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    attempts = attempt + 1;
    if (attempt > 0) {
      ++stats_.retries;
      if (retries_counter_ != nullptr) retries_counter_->inc();
      if (!retry_span && telemetry_ != nullptr &&
          telemetry_->tracing_enabled()) {
        retry_span = telemetry_->tracer().start_span("enforce.retry");
      }
    }
    try {
      inner_.apply(target);
    } catch (const isolation::ActuatorError&) {
      ++stats_.actuator_errors;
      inner_.resync();
      continue;
    }
    if (inner_.verify(target)) {
      ok = true;
      break;
    }
    ++stats_.verify_failures;
    if (verify_counter_ != nullptr) verify_counter_->inc();
    inner_.resync();
  }
  if (!ok) {
    ++stats_.gave_up;
    if (gave_up_counter_ != nullptr) gave_up_counter_->inc();
    inner_.resync();
  }
  if (retry_span) {
    retry_span->attr("attempts", attempts).attr("ok", ok);
  }
  return ok;
}

}  // namespace sturgeon::fault
