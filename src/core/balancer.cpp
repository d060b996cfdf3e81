#include "core/balancer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/check.h"
#include "util/invariants.h"

namespace sturgeon::core {

ResourceBalancer::ResourceBalancer(const Predictor& predictor,
                                   double power_budget_w,
                                   BalancerConfig config)
    : predictor_(predictor), budget_w_(power_budget_w), config_(config) {
  if (power_budget_w <= 0.0 || config.alpha < 0.0 ||
      config.beta <= config.alpha || config.initial_granularity <= 0.0 ||
      config.initial_granularity > 1.0) {
    throw std::invalid_argument("ResourceBalancer: bad configuration");
  }
}

void ResourceBalancer::set_power_budget(double watts) {
  if (!std::isfinite(watts) || watts <= 0.0) {
    throw std::invalid_argument("ResourceBalancer: bad power budget");
  }
  budget_w_ = watts;
}

void ResourceBalancer::bind_telemetry(telemetry::MetricsRegistry* metrics,
                                      telemetry::Tracer* tracer) {
  tracer_ = tracer;
  harvests_counter_ =
      metrics != nullptr ? &metrics->counter("balancer.harvests") : nullptr;
  reverts_counter_ =
      metrics != nullptr ? &metrics->counter("balancer.reverts") : nullptr;
}

void ResourceBalancer::arm(const Partition& current) {
  // Algorithm 2 line 2: granularity = a fraction (default half) of what
  // the BE side owns.
  const double g = config_.initial_granularity;
  g_cores_ = g * current.be.cores;
  g_ways_ = g * current.be.llc_ways;
  g_freq_ = g * (current.be.freq_level + 1);
  active_ = false;
  last_harvest_.reset();
  last_amount_ = 0;
  last_action_.clear();
  slack_at_harvest_ = 0.0;
  for (bool& b : ineffective_) b = false;
}

std::optional<Partition> ResourceBalancer::harvested(const Partition& current,
                                                     Resource r,
                                                     int amount) const {
  if (amount < 1) return std::nullopt;
  const MachineSpec& m = predictor_.machine();
  Partition p = current;
  switch (r) {
    case Resource::kCores: {
      const int take = std::min(amount, p.be.cores - 1);
      if (take < 1) return std::nullopt;
      p.be.cores -= take;
      p.ls.cores += take;
      return p;
    }
    case Resource::kWays: {
      const int take = std::min(amount, p.be.llc_ways - 1);
      if (take < 1) return std::nullopt;
      p.be.llc_ways -= take;
      p.ls.llc_ways += take;
      return p;
    }
    case Resource::kPower: {
      // "Harvest power": shift P-states -- BE down, LS up.
      const int down = std::min(amount, p.be.freq_level);
      const int up = std::min(amount, m.max_freq_level() - p.ls.freq_level);
      if (down < 1 && up < 1) return std::nullopt;
      p.be.freq_level -= down;
      p.ls.freq_level += up;
      return p;
    }
  }
  return std::nullopt;
}

std::optional<Partition> ResourceBalancer::step(double slack, double qps_real,
                                                const Partition& current) {
  telemetry::Span span = tracer_ != nullptr
                             ? tracer_->start_span("balance_step")
                             : telemetry::Span{};
  span.attr("slack", slack);
  last_action_.clear();
  if (current.be.cores == 0) {
    active_ = false;
    return std::nullopt;  // nothing to harvest from
  }

  if (slack >= config_.alpha && slack <= config_.beta) {
    // Tail latency back in the suitable band: sequence complete.
    active_ = false;
    last_harvest_.reset();
    return std::nullopt;
  }

  if (slack > config_.beta) {
    // Latency suddenly very low: the previous harvest was excessive;
    // revert half of it to the BE application (lines 11-13).
    if (!active_ || !last_harvest_) return std::nullopt;
    const int back = std::max(1, last_amount_ / 2);
    Partition p = current;
    const MachineSpec& m = predictor_.machine();
    switch (*last_harvest_) {
      case Resource::kCores:
        if (p.ls.cores - back < 1) return std::nullopt;
        p.ls.cores -= back;
        p.be.cores += back;
        break;
      case Resource::kWays:
        if (p.ls.llc_ways - back < 1) return std::nullopt;
        p.ls.llc_ways -= back;
        p.be.llc_ways += back;
        break;
      case Resource::kPower:
        p.be.freq_level = std::min(m.max_freq_level(),
                                   p.be.freq_level + back);
        p.ls.freq_level = std::max(0, p.ls.freq_level - back);
        break;
    }
    // The revert must not re-introduce a power overload (line 13).
    if (predictor_.total_power_w(qps_real, p) > budget_w_) {
      return std::nullopt;
    }
    last_amount_ -= back;
    if (last_amount_ <= 0) last_harvest_.reset();
    last_action_ = "revert";
    if (reverts_counter_ != nullptr) reverts_counter_->inc();
    span.attr("action", last_action_).attr("amount", back);
    ValidateConfig(m, p, "ResourceBalancer::step(revert)",
                   /*allow_empty_be=*/false);
    return p;
  }

  // slack < alpha: harvest. First grade the previous harvest: if it
  // bought essentially no slack, its resource type is not what the LS
  // service is starved of -- exclude it for the rest of the sequence.
  if (active_ && last_harvest_) {
    if (slack - slack_at_harvest_ < 0.03) {
      ineffective_[static_cast<int>(*last_harvest_)] = true;
    }
  }
  {
    bool all_excluded = true;
    for (bool b : ineffective_) all_excluded = all_excluded && b;
    if (all_excluded) {
      for (bool& b : ineffective_) b = false;
    }
  }

  // Choose the harvest with minimum predicted throughput loss that keeps
  // power under budget (lines 4-9).
  active_ = true;
  struct Option {
    Resource r;
    double* granularity;
  };
  Option options[] = {{Resource::kCores, &g_cores_},
                      {Resource::kWays, &g_ways_},
                      {Resource::kPower, &g_freq_}};
  std::optional<Partition> best;
  double best_thr = -1.0;
  Resource best_r = Resource::kCores;
  int best_amount = 0;
  double* best_g = nullptr;
  for (const auto& opt : options) {
    if (ineffective_[static_cast<int>(opt.r)]) continue;
    const int amount =
        std::max(1, static_cast<int>(std::lround(*opt.granularity)));
    const auto cand = harvested(current, opt.r, amount);
    if (!cand) continue;
    if (predictor_.total_power_w(qps_real, *cand) > budget_w_) continue;
    const double thr = predictor_.be_throughput(cand->be);
    if (thr > best_thr) {
      best_thr = thr;
      best = cand;
      best_r = opt.r;
      best_amount = amount;
      best_g = opt.granularity;
    }
  }
  if (!best) return std::nullopt;  // BE already minimal everywhere
  ValidateConfig(predictor_.machine(), *best, "ResourceBalancer::step(harvest)",
                 /*allow_empty_be=*/false);
  last_harvest_ = best_r;
  last_amount_ = best_amount;
  slack_at_harvest_ = slack;
  *best_g = std::max(0.5, *best_g * 0.5);  // line 14
  switch (best_r) {
    case Resource::kCores: last_action_ = "cores"; break;
    case Resource::kWays: last_action_ = "ways"; break;
    case Resource::kPower: last_action_ = "power"; break;
  }
  if (harvests_counter_ != nullptr) harvests_counter_->inc();
  span.attr("action", last_action_).attr("amount", best_amount);
  return best;
}

}  // namespace sturgeon::core
