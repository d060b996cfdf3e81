#include "core/controller.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string_view>

#include "telemetry/context.h"
#include "telemetry/metrics.h"
#include "telemetry/monitor.h"
#include "util/check.h"
#include "util/invariants.h"

namespace sturgeon::core {

namespace {

// The member-initializer list dereferences the predictor (ConfigSearch and
// ResourceBalancer hold references), so the null check must run before any
// member is constructed — a check in the constructor body would be too late.
const Predictor& require_predictor(
    const std::shared_ptr<const Predictor>& predictor) {
  if (!predictor) {
    throw std::invalid_argument("SturgeonController: null predictor");
  }
  return *predictor;
}

// The instrument behind `slot`, looked up by name only when the slot is
// empty (first use after each telemetry attach).
telemetry::Gauge& bound(telemetry::Gauge*& slot,
                        telemetry::MetricsRegistry& metrics,
                        std::string_view name) {
  if (slot == nullptr) slot = &metrics.gauge(name);
  return *slot;
}

telemetry::Counter& bound(telemetry::Counter*& slot,
                          telemetry::MetricsRegistry& metrics,
                          std::string_view name) {
  if (slot == nullptr) slot = &metrics.counter(name);
  return *slot;
}

}  // namespace

SturgeonController::SturgeonController(
    std::shared_ptr<const Predictor> predictor, double qos_target_ms,
    double power_budget_w, SturgeonOptions options)
    : predictor_(std::move(predictor)),
      qos_target_ms_(qos_target_ms),
      options_(options),
      search_(require_predictor(predictor_), power_budget_w),
      balancer_(*predictor_, power_budget_w,
                BalancerConfig{options.alpha, options.beta,
                               options.balancer_granularity}) {
  if (qos_target_ms <= 0.0) {
    throw std::invalid_argument("SturgeonController: bad QoS target");
  }
  if (options.alpha < 0.0 || options.beta <= options.alpha) {
    throw std::invalid_argument("SturgeonController: alpha/beta");
  }
  rebind_instruments();
}

std::string SturgeonController::name() const {
  return options_.enable_balancer ? "Sturgeon" : "Sturgeon-NoB";
}

std::string SturgeonController::describe() const {
  // %g is what an std::ostream prints a double as by default (precision
  // 6), without the cost of building a stream for every node's result.
  char buf[256];
  const int n = std::snprintf(
      buf, sizeof(buf),
      "%s(alpha=%g, beta=%g, qos_target_ms=%g, power_budget_w=%g, "
      "balancer=%s)",
      name().c_str(), options_.alpha, options_.beta, qos_target_ms_,
      search_.power_budget_w(), options_.enable_balancer ? "on" : "off");
  STURGEON_CHECK(n > 0 && static_cast<std::size_t>(n) < sizeof(buf),
                 "describe: " << n << " characters");
  return buf;
}

void SturgeonController::rebind_instruments() {
  auto& metrics = telemetry().metrics();
  decisions_counter_ = &metrics.counter("controller.decisions");
  searches_counter_ = &metrics.counter("controller.searches");
  balancer_actions_counter_ = &metrics.counter("controller.balancer_actions");
  search_.set_tracer(&telemetry().tracer());
  balancer_.bind_telemetry(&metrics, &telemetry().tracer());
  model_calls_counter_ = nullptr;
  power_fallbacks_counter_ = nullptr;
  power_cap_gauge_ = nullptr;
  reserve_cores_gauge_ = nullptr;
  reserve_ways_gauge_ = nullptr;
  reserve_freq_gauge_ = nullptr;
}

void SturgeonController::on_telemetry_attached() { rebind_instruments(); }

void SturgeonController::set_power_cap(double watts) {
  search_.set_power_budget(watts);
  balancer_.set_power_budget(watts);
  bound(power_cap_gauge_, telemetry().metrics(), "controller.power_cap_w")
      .set(watts);
}

std::uint64_t SturgeonController::searches_run() const {
  return searches_counter_->value();
}

std::uint64_t SturgeonController::balancer_actions() const {
  return balancer_actions_counter_->value();
}

void SturgeonController::reset() {
  balancer_armed_ = false;
  reserves_ = Reserves{};
  calm_intervals_ = 0;
  clear_decision();
  decisions_counter_->reset();
  searches_counter_->reset();
  balancer_actions_counter_->reset();
  if (model_calls_counter_ != nullptr) model_calls_counter_->reset();
  if (power_fallbacks_counter_ != nullptr) power_fallbacks_counter_->reset();
}

Partition SturgeonController::apply_reserves(Partition p) const {
  if (p.be.cores == 0) return p;
  const MachineSpec& m = predictor_->machine();
  const int cores = std::min(reserves_.cores, p.be.cores - 1);
  if (cores > 0) {
    p.ls.cores += cores;
    p.be.cores -= cores;
  }
  const int ways = std::min(reserves_.ways, p.be.llc_ways - 1);
  if (ways > 0) {
    p.ls.llc_ways += ways;
    p.be.llc_ways -= ways;
  }
  if (reserves_.freq > 0) {
    p.be.freq_level = std::max(0, p.be.freq_level - reserves_.freq);
    p.ls.freq_level = std::min(m.max_freq_level(),
                               p.ls.freq_level + reserves_.freq);
  }
  return p;
}

Partition SturgeonController::finish_decision(const Partition& p,
                                              Action action,
                                              std::string detail,
                                              double predicted_throughput,
                                              double predicted_power_w) {
  last_decision_.partition = p;
  last_decision_.action = action;
  last_decision_.detail = std::move(detail);
  last_decision_.predicted_throughput = predicted_throughput;
  last_decision_.predicted_power_w = predicted_power_w;

  auto& metrics = telemetry().metrics();
  bound(reserve_cores_gauge_, metrics, "controller.reserves.cores")
      .set(static_cast<double>(reserves_.cores));
  bound(reserve_ways_gauge_, metrics, "controller.reserves.ways")
      .set(static_cast<double>(reserves_.ways));
  bound(reserve_freq_gauge_, metrics, "controller.reserves.freq")
      .set(static_cast<double>(reserves_.freq));
  return p;
}

Partition SturgeonController::decide(const sim::ServerTelemetry& sample,
                                     const Partition& current) {
  // Telemetry and the running partition are this layer's preconditions:
  // a malformed sample or an inexpressible current config means a layer
  // below us already failed.
  ValidateConfig(predictor_->machine(), current, "SturgeonController::decide");
  STURGEON_DCHECK(std::isfinite(sample.ls.p95_ms) && sample.ls.p95_ms >= 0.0,
                  "decide: p95 = " << sample.ls.p95_ms);
  STURGEON_DCHECK(std::isfinite(sample.qps_real) && sample.qps_real >= 0.0,
                  "decide: qps = " << sample.qps_real);

  auto& tracer = telemetry().tracer();
  PolicyDecision& decision = begin_decision();
  decisions_counter_->inc();

  const double slack =
      telemetry::latency_slack(sample.ls.p95_ms, qos_target_ms_);
  const double qps = sample.qps_real;
  decision.slack = slack;

  {
    // Feature-extraction phase: slack banding and reserve bookkeeping.
    telemetry::Span span = tracer.start_span("features");
    span.attr("slack", slack)
        .attr("qps", qps)
        .attr("observed_p95_ms", sample.ls.p95_ms)
        .attr("observed_power_w", sample.power_w);

    // Decay the compensation reserves after sustained calm.
    if (slack >= options_.alpha && !balancer_.active()) {
      if (++calm_intervals_ >= options_.reserve_decay_interval_s) {
        reserves_.cores /= 2;
        reserves_.ways /= 2;
        reserves_.freq /= 2;
        calm_intervals_ = 0;
      }
    } else {
      calm_intervals_ = 0;
    }
  }

  // Slack inside the band: nothing to do (Algorithm 1 line 5). Let an
  // in-flight balancer sequence observe the settled state.
  if (slack >= options_.alpha && slack <= options_.beta) {
    if (options_.enable_balancer && balancer_armed_) {
      telemetry::Span span = tracer.start_span("balance");
      balancer_.step(slack, qps, current);  // disarms itself in-band
      span.attr("action", "settle");
    }
    return finish_decision(current, Action::kHold, {}, 0.0, 0.0);
  }

  // A live balancer sequence continues before any new search: it is the
  // feedback path that knows about unmodelled interference. Its net
  // LS-ward movement accumulates into the reserves.
  const auto run_balancer = [&](const Partition& base)
      -> std::optional<Partition> {
    telemetry::Span span = tracer.start_span("balance");
    const auto p = balancer_.step(slack, qps, base);
    span.attr("action",
              balancer_.last_action().empty() ? "none"
                                              : balancer_.last_action());
    if (p) {
      balancer_actions_counter_->inc();
      reserves_.cores =
          std::clamp(reserves_.cores + (p->ls.cores - base.ls.cores), 0,
                     predictor_->machine().num_cores - 1);
      reserves_.ways =
          std::clamp(reserves_.ways + (p->ls.llc_ways - base.ls.llc_ways), 0,
                     predictor_->machine().llc_ways - 1);
      reserves_.freq = std::clamp(
          reserves_.freq + (base.be.freq_level - p->be.freq_level), 0,
          predictor_->machine().max_freq_level());
    }
    return p;
  };

  if (options_.enable_balancer && balancer_armed_ && balancer_.active()) {
    if (const auto p = run_balancer(current)) {
      return finish_decision(*p, Action::kBalance,
                             balancer_.last_action(), 0.0, 0.0);
    }
  }

  // Find and apply a new configuration with the predictor (line 6),
  // shifted by the compensation reserves the balancer has accumulated.
  SearchResult result;
  {
    telemetry::Span span = tracer.start_span("search");
    result = search_.search(qps);
    searches_counter_->inc();
    bound(model_calls_counter_, telemetry().metrics(), "controller.model_calls")
        .add(result.model_invocations);
    if (result.power_fallback) {
      bound(power_fallbacks_counter_, telemetry().metrics(),
            "controller.power_fallbacks")
          .inc();
    }
    result.best = apply_reserves(result.best);
    if (span.active()) {
      span.attr("feasible", result.feasible)
          .attr("model_calls", result.model_invocations)
          .attr("predicted_throughput", result.predicted_throughput)
          .attr("predicted_power_w", result.predicted_power_w)
          .attr("chosen", result.best.to_string(predictor_->machine()));
    }
  }
  ValidateConfig(predictor_->machine(), result.best,
                 "SturgeonController::decide(apply_reserves)");
  if (!(result.best == current)) {
    if (options_.enable_balancer) {
      balancer_.arm(result.best);
      balancer_armed_ = true;
    }
    return finish_decision(result.best, Action::kSearch, {},
                           result.predicted_throughput,
                           result.predicted_power_w);
  }

  // The predictor proposes the configuration we are already running, yet
  // slack is still bad: unmodelled interference. Only the feedback
  // balancer can fix this (line 7: "fine-tune if necessary"); without it
  // (Sturgeon-NoB) the violation persists -- exactly the paper's Fig 9.
  if (slack < options_.alpha && options_.enable_balancer) {
    if (!balancer_armed_) {
      balancer_.arm(current);
      balancer_armed_ = true;
    }
    if (const auto p = run_balancer(current)) {
      return finish_decision(*p, Action::kBalance,
                             balancer_.last_action(), 0.0, 0.0);
    }
  }
  return finish_decision(current, Action::kHold, {},
                         result.predicted_throughput,
                         result.predicted_power_w);
}

}  // namespace sturgeon::core
