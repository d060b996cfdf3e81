#include "baselines/heracles.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

#include "telemetry/monitor.h"

namespace sturgeon::baselines {

HeraclesController::HeraclesController(const MachineSpec& machine,
                                       double qos_target_ms,
                                       HeraclesOptions options)
    : machine_(machine), qos_target_ms_(qos_target_ms), options_(options) {
  if (qos_target_ms <= 0.0 || options.power_budget_w <= 0.0 ||
      options.beta <= options.alpha) {
    throw std::invalid_argument("HeraclesController: bad options");
  }
}

std::string HeraclesController::describe() const {
  std::ostringstream os;
  os << name() << "(alpha=" << options_.alpha << ", beta=" << options_.beta
     << ", qos_target_ms=" << qos_target_ms_
     << ", power_budget_w=" << options_.power_budget_w
     << ", guard=" << options_.power_guard
     << ", slack=" << options_.power_slack << ")";
  return os.str();
}

Partition HeraclesController::decide(const sim::ServerTelemetry& sample,
                                     const Partition& current) {
  const double slack =
      telemetry::latency_slack(sample.ls.p95_ms, qos_target_ms_);
  begin_decision().slack = slack;
  core::Action action = core::Action::kHold;
  std::string detail;
  Partition p = current;
  p.ls.freq_level = machine_.max_freq_level();  // LS always full speed

  // Core subcontroller.
  if (slack < options_.alpha) {
    // Grow LS aggressively (Heracles disables BE growth and claws back).
    const int grab = std::min(2, p.be.cores - 1);
    if (grab > 0) {
      p.ls.cores += grab;
      p.be.cores -= grab;
      action = core::Action::kUpsize;
      detail = "cores";
    } else if (p.be.cores == 0) {
      // nothing to take
    }
    // Cache subcontroller: claw back ways quickly under pressure.
    const int ways = std::min(2, p.be.llc_ways - 1);
    if (ways > 0) {
      p.ls.llc_ways += ways;
      p.be.llc_ways -= ways;
      if (action == core::Action::kHold) {
        action = core::Action::kUpsize;
        detail = "ways";
      }
    }
  } else if (slack > options_.beta) {
    if (p.be.cores == 0) {
      action = core::Action::kSeedBe;
      // Bootstrap a minimal BE slice at the lowest P-state.
      p.ls.cores = std::max(1, p.ls.cores - 1);
      p.ls.llc_ways = std::max(1, p.ls.llc_ways - 1);
      p.be = AppSlice{machine_.num_cores - p.ls.cores, 0,
                      machine_.llc_ways - p.ls.llc_ways};
    } else {
      if (p.ls.cores > 1) {
        --p.ls.cores;
        ++p.be.cores;
        action = core::Action::kDownsize;
        detail = "cores";
      }
      // Cache subcontroller: grow the BE share slowly while healthy.
      if (p.ls.llc_ways > 1) {
        --p.ls.llc_ways;
        ++p.be.llc_ways;
        if (action == core::Action::kHold) {
          action = core::Action::kDownsize;
          detail = "ways";
        }
      }
    }
  }

  // Power subcontroller: BE DVFS is the only power actuator.
  if (p.be.cores > 0) {
    if (sample.power_w > options_.power_guard * options_.power_budget_w) {
      p.be.freq_level = std::max(0, p.be.freq_level - 1);
      if (action == core::Action::kHold) {
        action = core::Action::kPowerCap;
        detail = "freq";
      }
    } else if (sample.power_w <
               options_.power_slack * options_.power_budget_w) {
      p.be.freq_level =
          std::min(machine_.max_freq_level(), p.be.freq_level + 1);
      if (action == core::Action::kHold) {
        action = core::Action::kBeBoost;
        detail = "freq";
      }
    }
  }
  last_decision_.partition = p;
  last_decision_.action = action;
  last_decision_.detail = std::move(detail);
  return p;
}

}  // namespace sturgeon::baselines
