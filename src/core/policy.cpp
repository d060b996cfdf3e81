#include "core/policy.h"

#include <stdexcept>

#include "telemetry/context.h"

namespace sturgeon::core {

const char* to_string(Action action) {
  switch (action) {
    case Action::kNone: return "none";
    case Action::kHold: return "hold";
    case Action::kSearch: return "search";
    case Action::kBalance: return "balance";
    case Action::kRevert: return "revert";
    case Action::kStatic: return "static";
    case Action::kUpsize: return "upsize";
    case Action::kDownsize: return "downsize";
    case Action::kProbe: return "probe";
    case Action::kSeedBe: return "seed_be";
    case Action::kPowerCap: return "power_cap";
    case Action::kBeBoost: return "be_boost";
    case Action::kSafeMode: return "safe-mode";
  }
  return "unknown";
}

std::string PolicyDecision::action_string() const {
  std::string out = to_string(action);
  if (!detail.empty()) {
    out += ':';
    out += detail;
  }
  return out;
}

Policy::Policy() : telemetry_(telemetry::TelemetryContext::noop()) {}

void Policy::attach_telemetry(
    std::shared_ptr<telemetry::TelemetryContext> context) {
  telemetry_ =
      context ? std::move(context) : telemetry::TelemetryContext::noop();
  on_telemetry_attached();
}

Allocation Policy::decide(const sim::ServerTelemetry& sample,
                          const Allocation& current) {
  if (current.size() != 2) {
    throw std::invalid_argument(
        name() + ": pair policy cannot decide a K = " +
        std::to_string(current.size()) + " allocation");
  }
  return Allocation::of(decide(sample, current.to_partition()));
}

PolicyDecision& Policy::begin_decision() {
  const std::uint64_t next_epoch = last_decision_.epoch + 1;
  last_decision_ = PolicyDecision{};
  last_decision_.epoch = next_epoch;
  return last_decision_;
}

}  // namespace sturgeon::core
