#include "cluster/node.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/controller.h"
#include "exp/model_registry.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/check.h"
#include "util/rng.h"

namespace sturgeon::cluster {

namespace {

/// A measured power above cap * (1 + tolerance) counts as a cap
/// overshoot for the watchdog. The slack absorbs the governor's
/// one-epoch reaction lag so a single hot epoch under a freshly lowered
/// cap is not "bad".
constexpr double kWatchdogCapOvershootTolerance = 0.10;

std::shared_ptr<core::Policy> default_policy(
    const NodeSpec& spec, const sim::SimulatedServer& server) {
  return std::make_shared<core::SturgeonController>(
      exp::predictor_for(spec.ls, spec.be, spec.trainer),
      spec.ls.qos_target_ms, server.power_budget_w());
}

std::unique_ptr<fault::FaultInjector> make_injector(
    const fault::FaultConfig& faults, std::uint64_t node_seed) {
  if (!faults.enabled) return nullptr;
  return std::make_unique<fault::FaultInjector>(
      faults, derive_seed(node_seed, fault::kFaultStream));
}

}  // namespace

ClusterNode::ClusterNode(int id, NodeSpec spec, std::uint64_t seed,
                         std::shared_ptr<telemetry::TelemetryContext> telemetry,
                         GovernorConfig governor, ResilienceConfig resilience,
                         fault::FaultConfig faults)
    : id_(id),
      spec_(std::move(spec)),
      resilience_(resilience),
      server_(spec_.ls, spec_.be, seed, spec_.server),
      backend_(server_),
      injector_(make_injector(faults, seed)),
      faulty_cpuset_(backend_.cpuset(), injector_.get()),
      faulty_cat_(backend_.cat(), injector_.get()),
      faulty_freq_(backend_.freq(), injector_.get()),
      enforcer_(server_.machine(), faulty_cpuset_, faulty_cat_, faulty_freq_),
      retry_(enforcer_, resilience_.retry),
      watchdog_(resilience_.watchdog),
      safe_partition_(Partition::all_to_ls(server_.machine())),
      policy_partition_(safe_partition_),
      telemetry_(std::move(telemetry)),
      metrics_(server_.power_budget_w()),
      governor_(governor) {
  STURGEON_CHECK(telemetry_ != nullptr, "ClusterNode: null telemetry context");
  budget_w_ = server_.power_budget_w();
  idle_w_ = server_.power_model().idle_power_w();
  cap_w_ = budget_w_;  // uncapped until the coordinator says otherwise

  // Physical sensor bounds: a package cannot draw negative watts or
  // more than its fully-busy maximum (generous 1.25x margin so honest
  // transients are never clamped); a p95 beyond 100x the QoS target
  // carries no more information than "violating badly".
  fault::SanitizerConfig power_bounds;
  power_bounds.lo = 0.0;
  power_bounds.hi = 1.25 * server_.power_model().max_package_power_w();
  power_sanitizer_ = fault::SignalSanitizer(power_bounds);
  fault::SanitizerConfig latency_bounds;
  latency_bounds.lo = 0.0;
  latency_bounds.hi = 100.0 * spec_.ls.qos_target_ms;
  latency_sanitizer_ = fault::SignalSanitizer(latency_bounds);

  policy_ = spec_.make_policy ? spec_.make_policy(server_)
                              : default_policy(spec_, server_);
  STURGEON_CHECK(policy_ != nullptr, "ClusterNode: policy factory returned "
                                     "null");
  policy_->attach_telemetry(telemetry_);
  policy_->reset();

  auto& registry = telemetry_->metrics();
  p95_hist_ = &registry.histogram(
      "epoch.p95_ms", telemetry::Histogram::exponential_bounds(0.125, 2.0, 16));
  power_hist_ = &registry.histogram(
      "epoch.power_w", telemetry::Histogram::linear_bounds(0.0, 10.0, 40));
  slack_hist_ = &registry.histogram(
      "epoch.slack", telemetry::Histogram::linear_bounds(-1.0, 0.1, 21));
  epochs_counter_ = &registry.counter("run.epochs");
  violations_counter_ = &registry.counter("run.qos_violation_intervals");
  changes_counter_ = &registry.counter("run.partition_changes");
  throttle_counter_ = &registry.counter("node.governor.throttled_epochs");
  safe_mode_counter_ = &registry.counter("fault.watchdog.safe_mode_epochs");
  cap_unsupported_counter_ = &registry.counter("policy.cap.unsupported");
  degraded_gauge_ = &registry.gauge("node.degraded");
  registry.gauge("node.power_budget_w").set(budget_w_);
  if (injector_ != nullptr) injector_->bind(registry);
  if (resilience_.sanitize_sensors) {
    power_sanitizer_.bind(registry, "fault.sensor.power");
    latency_sanitizer_.bind(registry, "fault.sensor.latency");
  }
  retry_.attach_telemetry(telemetry_);

  report_ = NodeReport{budget_w_, idle_w_, cap_w_, 0.0, 0.0, true,
                       Liveness::kNeverReported, false, {}};
}

void ClusterNode::push_cap_to_policy(double watts) {
  if (policy_->supports_power_cap()) {
    policy_->set_power_cap(watts);
  } else {
    // The cap still binds through the reactive governor, but the policy
    // itself will keep proposing configurations sized for its original
    // budget -- make that visible instead of silently dropping the cap.
    cap_unsupported_counter_->inc();
  }
}

void ClusterNode::set_power_cap(double watts) {
  STURGEON_CHECK(watts > 0.0, "ClusterNode::set_power_cap: " << watts);
  cap_w_ = watts;
  push_cap_to_policy(watts);
  if (power_cap_gauge_ == nullptr) {
    power_cap_gauge_ = &telemetry_->metrics().gauge("node.power_cap_w");
  }
  power_cap_gauge_->set(watts);

  // Feed-forward clamp before the first measurement: the reactive loop
  // only sees 1 s samples, but a real node's RAPL would clamp frequency
  // mid-interval. Size the startup throttle from the node's own power
  // model (worst case: both slices fully busy) so the initial all-to-LS
  // partition cannot blow through the very first cap.
  if (governor_.enabled && epochs_run_ == 0) {
    const auto& model = server_.power_model();
    const int max_throttle = 2 * server_.machine().max_freq_level();
    const double bw = spec_.ls.bw_gbps_at_peak + spec_.be.bw_gbps_max;
    throttle_ = 0;
    while (throttle_ < max_throttle) {
      const Partition p = throttled(retry_.current());
      const double estimate = model.package_power_w(
          p.ls, 1.0, spec_.ls.power_activity, p.be, 1.0,
          spec_.be.power_activity, bw);
      if (estimate <= cap_w_) break;
      ++throttle_;
    }
    const Partition target = throttled(retry_.current());
    if (!(target == retry_.current())) retry_.apply(target);
  }
}

Partition ClusterNode::throttled(Partition p) const {
  int remaining = throttle_;
  if (remaining <= 0) return p;
  if (p.be.cores > 0) {
    const int d = std::min(remaining, p.be.freq_level);
    p.be.freq_level -= d;
    remaining -= d;
  }
  p.ls.freq_level -= std::min(remaining, p.ls.freq_level);
  return p;
}

void ClusterNode::step_down() {
  // Crashed: the machine is off. The epoch still elapses (the
  // validator's epochs-equality contract holds), but nothing is served,
  // no power is drawn, and the heartbeat stays silent so the
  // coordinator's tracker can declare the node dead.
  ++epochs_run_;
  ++epochs_down_;
  cap_w_sum_ += cap_w_;
  true_power_w_ = 0.0;
  degraded_gauge_->set(1.0);
}

void ClusterNode::step_hung(int t) {
  // Hung: the serving path is alive under the last enforced partition,
  // but the control loop is stalled -- no observation, no decision, no
  // report, no heartbeat. Users still experience the served quality, so
  // the ground-truth metrics accumulator keeps recording.
  const sim::ServerTelemetry sample = server_.step(spec_.trace.at(t));
  metrics_.observe(sample);
  true_power_w_ = sample.power_w;
  ++epochs_run_;
  ++epochs_hung_;
  cap_w_sum_ += cap_w_;
  degraded_gauge_->set(1.0);
}

void ClusterNode::step(int t) {
  if (injector_ != nullptr) {
    injector_->begin_epoch(t);
    if (injector_->node_down()) {
      step_down();
      return;
    }
    if (injector_->rebooted_this_epoch()) {
      // Reboot after a crash: the server restarts cold (queues and
      // interference state cleared) and the control plane
      // re-initializes; the isolation hardware keeps its last
      // programmed state, like BIOS-persisted settings.
      server_.reset();
      policy_->reset();
      push_cap_to_policy(cap_w_);
      throttle_ = 0;
    }
    if (injector_->node_hung()) {
      step_hung(t);
      return;
    }
  }

  auto& tracer = telemetry_->tracer();
  telemetry::Span epoch = tracer.start_span("epoch");
  epoch.attr("t_s", t).attr("node", id_);
  epochs_counter_->inc();

  sim::ServerTelemetry sample;   // ground truth
  sim::ServerTelemetry observed; // what the monitor path sees
  {
    telemetry::Span span = tracer.start_span("observe");
    sample = server_.step(spec_.trace.at(t));
    true_power_w_ = sample.power_w;
    observed = sample;
    if (injector_ != nullptr) {
      // Sensor faults fire at the server/monitor boundary: everything
      // downstream (governor, policy, watchdog, coordinator report)
      // sees the corrupted stream; only the evaluation metrics keep the
      // ground truth.
      observed.power_w = injector_->corrupt_power_w(observed.power_w);
      observed.ls.p95_ms = injector_->corrupt_latency_ms(observed.ls.p95_ms);
    }
    if (resilience_.sanitize_sensors) {
      observed.power_w = power_sanitizer_.sanitize(observed.power_w);
      observed.ls.p95_ms = latency_sanitizer_.sanitize(observed.ls.p95_ms);
    }
    backend_.observe(observed);
    metrics_.observe(sample);
    if (telemetry_->csv_enabled()) {
      telemetry_->recorder().record(t, observed, retry_.current());
    }
    span.attr("qps", sample.qps_real)
        .attr("p95_ms", observed.ls.p95_ms)
        .attr("power_w", observed.power_w);
  }
  const double slack =
      telemetry::latency_slack(observed.ls.p95_ms, observed.qos_target_ms);
  if (std::isfinite(observed.ls.p95_ms)) p95_hist_->observe(observed.ls.p95_ms);
  if (std::isfinite(observed.power_w)) power_hist_->observe(observed.power_w);
  if (std::isfinite(slack)) slack_hist_->observe(slack);

  // Reactive cap enforcement (RAPL analogue): confiscate one frequency
  // level while measured power sits above the cap, give one back once it
  // falls comfortably below. Runs on the epoch's measurement, before the
  // partition for the next epoch is enforced.
  if (governor_.enabled) {
    const int max_throttle = 2 * server_.machine().max_freq_level();
    if (observed.power_w > cap_w_) {
      throttle_ = std::min(throttle_ + 1, max_throttle);
    } else if (throttle_ > 0 &&
               observed.power_w <= governor_.relax_margin * cap_w_) {
      --throttle_;
    }
  }

  // Watchdog: consecutive QoS violations or cap overshoots (as the
  // monitor sees them) trip the node into the known-safe all-to-LS
  // partition; hysteresis on the way out prevents flapping.
  bool safe_mode = false;
  if (resilience_.watchdog.enabled) {
    const bool qos_violation = !observed.qos_met();
    const bool cap_overshoot =
        observed.power_w > cap_w_ * (1.0 + kWatchdogCapOvershootTolerance);
    safe_mode = watchdog_.observe(qos_violation, cap_overshoot);
    if (safe_mode) {
      ++safe_mode_epochs_;
      safe_mode_counter_->inc();
    }
  }
  degraded_gauge_->set(safe_mode ? 1.0 : 0.0);

  Partition next;
  std::string action;
  if (safe_mode) {
    next = safe_partition_;
    action = core::to_string(core::Action::kSafeMode);
  } else if (!be_active_) {
    // No BE jobs on the node: hold the all-to-LS partition without
    // consulting the policy. The LS service keeps its whole machine;
    // the policy resumes (warm-started from this partition) when the
    // churn engine lands the next job.
    next = safe_partition_;
    action = "be-idle";
  } else {
    telemetry::Span span = tracer.start_span("decide");
    sim::ServerTelemetry decide_sample = observed;
    if (injector_ != nullptr) {
      // Model fault: the policy's inputs drift from what the monitor
      // recorded, inflating prediction error until the balancer
      // compensates.
      const double inflation = injector_->model_error_inflation();
      if (inflation != 1.0) {
        decide_sample.ls.p95_ms *= inflation;
        decide_sample.be_throughput /= inflation;
        decide_sample.be_throughput_norm /= inflation;
      }
    }
    // A failed apply can leave the tools in a mixture the isolation
    // stack could never program (say, BE cores with zero BE ways), and
    // resync() reads it back. The enforcer keeps that mixture for its
    // shrink-before-grow ordering; the policy gets the last partition it
    // was handed instead.
    if (retry_.current().enforceable_on(server_.machine())) {
      policy_partition_ = retry_.current();
    } else {
      if (substitutions_counter_ == nullptr) {
        substitutions_counter_ = &telemetry_->metrics().counter(
            "fault.actuator.partition_substitutions");
      }
      substitutions_counter_->inc();
    }
    next = policy_->decide(decide_sample, policy_partition_);
    action = policy_->last_decision().action_string();
    span.attr("action", action);
  }
  const Partition target = throttled(next);
  if (!(target == next)) {
    ++throttled_epochs_;
    throttle_counter_->inc();
  }

  const bool changed = !(target == retry_.current());
  if (changed) {
    telemetry::Span span = tracer.start_span("enforce");
    const bool applied = retry_.apply(target);
    changes_counter_->inc();
    if (span.active()) {
      span.attr("partition", target.to_string(server_.machine()))
          .attr("applied", applied);
    }
  }
  epoch.attr("p95_ms", observed.ls.p95_ms)
      .attr("power_w", observed.power_w)
      .attr("cap_w", cap_w_)
      .attr("slack", slack)
      .attr("action", action)
      .attr("throttle", throttle_);

  if (!sample.qos_met()) violations_counter_->inc();
  ++epochs_run_;
  last_step_epoch_ = t;
  cap_w_sum_ += cap_w_;
  report_ = NodeReport{budget_w_, idle_w_,
                       cap_w_,    observed.power_w,
                       slack,     observed.qos_met(),
                       Liveness::kAlive, false, {}};
  report_.slices.reserve(observed.slices.size());
  for (const auto& sv : observed.slices) {
    SliceReport sr;
    sr.latency_sensitive = sv.kind == WorkloadKind::kLatencySensitive;
    if (sr.latency_sensitive) {
      // Monitor-path values, consistent with the scalar roll-up (sensor
      // faults and sanitization touch the roll-up scalars).
      sr.slack = slack;
      sr.qos_met = observed.qos_met();
    } else {
      sr.throughput_norm = sv.throughput_norm;
    }
    report_.slices.push_back(sr);
  }
}

NodeResult ClusterNode::result() const {
  NodeResult r;
  r.node = id_;
  r.policy = policy_->describe();
  r.ls = spec_.ls.name;
  r.be = spec_.be.name;
  r.epochs = epochs_run_;
  r.total_completed = metrics_.total_completed();
  r.total_violations = metrics_.total_violations();
  r.qos_guarantee_rate = metrics_.qos_guarantee_rate();
  r.interval_qos_rate = metrics_.interval_qos_rate();
  r.mean_be_throughput_norm = metrics_.mean_be_throughput_norm();
  r.budget_w = budget_w_;
  r.mean_cap_w = epochs_run_ > 0
                     ? cap_w_sum_ / static_cast<double>(epochs_run_)
                     : cap_w_;
  r.max_power_ratio = metrics_.max_power_ratio();
  r.power_overshoot_fraction = metrics_.power_overshoot_fraction();
  r.throttled_epochs = throttled_epochs_;
  r.epochs_down = epochs_down_;
  r.epochs_hung = epochs_hung_;
  r.safe_mode_epochs = safe_mode_epochs_;
  r.watchdog_trips = watchdog_.trips();
  r.safe_mode_episodes = watchdog_.completed_episodes();
  if (injector_ != nullptr) {
    const auto& c = injector_->counts();
    r.faults_injected = c.sensor_dropouts + c.sensor_stale + c.sensor_spikes +
                        c.tool_call_failures + c.down_epochs + c.hung_epochs +
                        c.model_epochs;
  }
  r.sensor_rejected = power_sanitizer_.counters().total_interventions() +
                      latency_sanitizer_.counters().total_interventions();
  r.actuator_retries = retry_.stats().retries;
  r.actuator_gave_up = retry_.stats().gave_up;
  r.telemetry = telemetry_;
  return r;
}

NodeResult run_colocation(const LsProfile& ls, const BeProfile& be,
                          core::Policy& policy, const LoadTrace& trace,
                          const RunConfig& config) {
  NodeSpec spec;
  spec.ls = ls;
  spec.be = be;
  spec.trace = trace;
  spec.server = config.server;
  // The caller owns the policy and reads it after the run: hand the node
  // an aliasing shared_ptr with no control block, which never deletes.
  spec.make_policy = [&policy](const sim::SimulatedServer&) {
    return std::shared_ptr<core::Policy>(std::shared_ptr<core::Policy>(),
                                         &policy);
  };
  std::shared_ptr<telemetry::TelemetryContext> ctx = config.telemetry;
  if (!ctx) {
    telemetry::TelemetryConfig tc;
    tc.csv = config.record_trace;
    ctx = telemetry::TelemetryContext::make(config.server.machine, tc);
  }
  GovernorConfig governor;
  governor.enabled = false;  // uncapped: the policy alone keeps the budget
  ClusterNode node(0, std::move(spec), config.seed, ctx, governor);

  // Everything the run learned must survive every exit path: the normal
  // end and exceptions out of the policy or the simulator.
  const auto finalize = [&] {
    node.metrics().publish(ctx->metrics());
    ctx->flush();
  };
  try {
    for (int t = 0; t < trace.duration_s(); ++t) node.step(t);
  } catch (...) {
    finalize();
    throw;
  }
  finalize();
  return node.result();
}

}  // namespace sturgeon::cluster
