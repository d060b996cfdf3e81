#include "baselines/parties.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

#include "telemetry/monitor.h"

namespace sturgeon::baselines {

PartiesController::PartiesController(const MachineSpec& machine,
                                     double qos_target_ms,
                                     PartiesOptions options)
    : machine_(machine), qos_target_ms_(qos_target_ms), options_(options) {
  if (qos_target_ms <= 0.0 || options.alpha < 0.0 ||
      options.beta <= options.alpha) {
    throw std::invalid_argument("PartiesController: bad options");
  }
}

std::string PartiesController::name() const {
  return options_.power_budget_w > 0.0 ? "PARTIES(power-enhanced)"
                                       : "PARTIES";
}

std::string PartiesController::describe() const {
  std::ostringstream os;
  os << name() << "(alpha=" << options_.alpha << ", beta=" << options_.beta
     << ", qos_target_ms=" << qos_target_ms_
     << ", power_budget_w=" << options_.power_budget_w
     << ", probe_patience_s=" << options_.probe_patience_s << ")";
  return os.str();
}

void PartiesController::reset() {
  resource_idx_ = 0;
  pending_feedback_ = false;
  pending_upsize_ = false;
  p95_before_ms_ = 0.0;
  healthy_streak_ = 0;
  cooldown_ = 0;
  clear_decision();
}

const char* PartiesController::resource_name(Resource r) {
  switch (r) {
    case Resource::kCores: return "cores";
    case Resource::kFreq: return "freq";
    case Resource::kWays: return "ways";
  }
  return "?";
}

Partition PartiesController::finish(const Partition& p,
                                    core::Action action,
                                    std::string detail) {
  last_decision_.partition = p;
  last_decision_.action = action;
  last_decision_.detail = std::move(detail);
  return p;
}

std::optional<Partition> PartiesController::adjust(const Partition& p,
                                                   Resource r,
                                                   bool toward_ls) const {
  Partition out = p;
  switch (r) {
    case Resource::kCores: {
      if (toward_ls) {
        if (out.be.cores <= 1) return std::nullopt;
        ++out.ls.cores;
        --out.be.cores;
      } else {
        if (out.ls.cores <= 1) return std::nullopt;
        --out.ls.cores;
        ++out.be.cores;
      }
      return out;
    }
    case Resource::kWays: {
      if (toward_ls) {
        if (out.be.llc_ways <= 1) return std::nullopt;
        ++out.ls.llc_ways;
        --out.be.llc_ways;
      } else {
        if (out.ls.llc_ways <= 1) return std::nullopt;
        --out.ls.llc_ways;
        ++out.be.llc_ways;
      }
      return out;
    }
    case Resource::kFreq: {
      if (toward_ls) {
        if (out.ls.freq_level >= machine_.max_freq_level()) {
          return std::nullopt;
        }
        ++out.ls.freq_level;
      } else {
        if (out.ls.freq_level <= 0) return std::nullopt;
        --out.ls.freq_level;
      }
      return out;
    }
  }
  return std::nullopt;
}

Partition PartiesController::decide(const sim::ServerTelemetry& sample,
                                    const Partition& current) {
  const double slack =
      telemetry::latency_slack(sample.ls.p95_ms, qos_target_ms_);
  begin_decision().slack = slack;
  const bool power_aware = options_.power_budget_w > 0.0;

  // Power-enhancement: a live overload preempts everything; back the BE
  // frequency off one step per interval until within budget.
  if (power_aware && sample.power_w > options_.power_budget_w) {
    pending_feedback_ = false;
    if (current.be.cores > 0 && current.be.freq_level > 0) {
      Partition p = current;
      --p.be.freq_level;
      return finish(p, core::Action::kPowerCap, "freq");
    }
    // Already at the lowest P-state: shrink the BE span instead.
    if (current.be.cores > 1) {
      Partition p = current;
      --p.be.cores;
      ++p.ls.cores;
      return finish(p, core::Action::kPowerCap, "cores");
    }
    return finish(current, core::Action::kHold);
  }

  // Evaluate the feedback of the adjustment made last interval.
  if (pending_feedback_) {
    pending_feedback_ = false;
    if (pending_upsize_) {
      const double improvement =
          p95_before_ms_ > 0.0
              ? (p95_before_ms_ - sample.ls.p95_ms) / p95_before_ms_
              : 0.0;
      if (improvement < options_.improvement_threshold &&
          slack < options_.alpha) {
        // No improvement: revert and move on to the next resource type.
        resource_idx_ = (resource_idx_ + 1) % kNumResources;
        if (const auto p = adjust(
                current, static_cast<Resource>(pending_resource_), false)) {
          return finish(*p, core::Action::kRevert);
        }
      }
    } else {
      if (slack < options_.alpha) {
        // Downsizing collapsed the slack: give the unit back.
        if (const auto p = adjust(
                current, static_cast<Resource>(pending_resource_), true)) {
          return finish(*p, core::Action::kRevert);
        }
      }
    }
  }

  if (slack < options_.alpha) {
    // Upsize: allocate units of the current resource type to LS. PARTIES
    // scales the step with the severity, and a fresh violation restarts
    // the rotation at cores (the resource that most often relieves an
    // overloaded leaf service).
    if (slack < -0.5 && !pending_feedback_) resource_idx_ = 0;
    const int units = slack < -0.5 ? 3 : slack < 0.0 ? 2 : 1;
    for (int attempt = 0; attempt < kNumResources; ++attempt) {
      const auto r = static_cast<Resource>(resource_idx_);
      std::optional<Partition> stepped;
      for (int u = 0; u < units; ++u) {
        if (const auto p = adjust(stepped ? *stepped : current, r, true)) {
          stepped = p;
        }
      }
      if (stepped) {
        pending_feedback_ = true;
        pending_upsize_ = true;
        pending_resource_ = r;
        p95_before_ms_ = sample.ls.p95_ms;
        return finish(*stepped, core::Action::kUpsize, resource_name(r));
      }
      resource_idx_ = (resource_idx_ + 1) % kNumResources;
    }
    return finish(current, core::Action::kHold);
  }

  // Track how long slack has been healthy; a long healthy streak lets
  // PARTIES probe for reclaimable resources even below beta.
  const double probe_floor = 0.5 * (options_.alpha + options_.beta);
  if (slack < 0.0) cooldown_ = 8;  // no probing right after a violation
  if (cooldown_ > 0) --cooldown_;
  const bool probe_downsize = slack >= probe_floor && cooldown_ == 0 &&
                              healthy_streak_ >= options_.probe_patience_s;
  healthy_streak_ = slack >= probe_floor ? healthy_streak_ + 1 : 0;
  if (probe_downsize) healthy_streak_ = 0;

  if (slack > options_.beta || probe_downsize) {
    // Downsize: harvest one unit from the LS service for the BE side.
    // An empty BE side first receives a minimal slice.
    if (current.be.cores == 0) {
      Partition p = current;
      p.ls.cores = std::max(1, p.ls.cores - 1);
      p.ls.llc_ways = std::max(1, p.ls.llc_ways - 1);
      p.be = AppSlice{machine_.num_cores - p.ls.cores,
                      power_aware ? 0 : machine_.max_freq_level(),
                      machine_.llc_ways - p.ls.llc_ways};
      return finish(p, core::Action::kSeedBe);
    }
    for (int attempt = 0; attempt < kNumResources; ++attempt) {
      const auto r = static_cast<Resource>(resource_idx_);
      resource_idx_ = (resource_idx_ + 1) % kNumResources;
      if (const auto p = adjust(current, r, false)) {
        pending_feedback_ = true;
        pending_upsize_ = false;
        pending_resource_ = r;
        p95_before_ms_ = sample.ls.p95_ms;
        return finish(*p,
                      probe_downsize ? core::Action::kProbe
                                     : core::Action::kDownsize,
                      resource_name(r));
      }
    }
    return finish(current, core::Action::kHold);
  }

  // In-band: opportunistically raise the BE frequency one step when the
  // measured power clearly allows (or unconditionally when power-
  // oblivious, as the original PARTIES runs BE cores at full speed).
  if (current.be.cores > 0 &&
      current.be.freq_level < machine_.max_freq_level()) {
    const bool headroom =
        !power_aware || sample.power_w < 0.95 * options_.power_budget_w;
    if (headroom) {
      Partition p = current;
      ++p.be.freq_level;
      return finish(p, core::Action::kBeBoost, "freq");
    }
  }
  return finish(current, core::Action::kHold);
}

}  // namespace sturgeon::baselines
