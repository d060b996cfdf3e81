#include "exp/runner.h"

#include <utility>

#include "isolation/enforcer.h"
#include "isolation/sim_backend.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace sturgeon::exp {

RunResult run_colocation(const LsProfile& ls, const BeProfile& be,
                         core::Policy& policy, const LoadTrace& trace,
                         const RunConfig& config) {
  sim::SimulatedServer server(ls, be, config.seed, config.server);
  isolation::SimBackend backend(server);
  isolation::ResourceEnforcer enforcer(server.machine(), backend.cpuset(),
                                       backend.cat(), backend.freq());

  std::shared_ptr<telemetry::TelemetryContext> ctx = config.telemetry;
  if (!ctx) {
    telemetry::TelemetryConfig tc;
    tc.csv = config.record_trace;
    ctx = telemetry::TelemetryContext::make(server.machine(), tc);
  }
  const bool record_rows = config.record_trace || ctx->csv_enabled();

  policy.attach_telemetry(ctx);
  policy.reset();

  RunResult result;
  result.power_budget_w = server.power_budget_w();
  result.telemetry = ctx;
  if (record_rows) {
    // Aliasing handle: the recorder lives inside (and dies with) ctx.
    result.trace =
        std::shared_ptr<telemetry::TraceRecorder>(ctx, &ctx->recorder());
  }

  telemetry::RunMetrics metrics(result.power_budget_w);
  auto& registry = ctx->metrics();
  auto& tracer = ctx->tracer();
  telemetry::Histogram& p95_hist = registry.histogram(
      "epoch.p95_ms",
      telemetry::Histogram::exponential_bounds(0.125, 2.0, 16));
  telemetry::Histogram& power_hist = registry.histogram(
      "epoch.power_w", telemetry::Histogram::linear_bounds(0.0, 10.0, 40));
  telemetry::Histogram& slack_hist = registry.histogram(
      "epoch.slack", telemetry::Histogram::linear_bounds(-1.0, 0.1, 21));
  telemetry::Counter& epochs_counter = registry.counter("run.epochs");
  telemetry::Counter& violations_counter =
      registry.counter("run.qos_violation_intervals");
  telemetry::Counter& changes_counter =
      registry.counter("run.partition_changes");

  // Everything the run learned must survive every exit path: normal end,
  // violation abort, and exceptions out of the policy or the simulator.
  const auto finalize = [&]() {
    result.qos_guarantee_rate = metrics.qos_guarantee_rate();
    result.mean_be_throughput_norm = metrics.mean_be_throughput_norm();
    result.interval_qos_rate = metrics.interval_qos_rate();
    result.power_overshoot_fraction = metrics.power_overshoot_fraction();
    result.max_power_ratio = metrics.max_power_ratio();
    metrics.publish(registry);
    ctx->flush();
  };

  int consecutive_violations = 0;
  try {
    for (int t = 0; t < trace.duration_s(); ++t) {
      telemetry::Span epoch = tracer.start_span("epoch");
      epoch.attr("t_s", t);
      epochs_counter.inc();

      sim::ServerTelemetry sample;
      {
        telemetry::Span span = tracer.start_span("observe");
        sample = server.step(trace.at(t));
        backend.observe(sample);
        metrics.observe(sample);
        if (record_rows) {
          ctx->recorder().record(t, sample, enforcer.current());
        }
        span.attr("qps", sample.qps_real)
            .attr("p95_ms", sample.ls.p95_ms)
            .attr("power_w", sample.power_w);
      }
      const double slack = telemetry::latency_slack(sample.ls.p95_ms,
                                                    sample.qos_target_ms);
      p95_hist.observe(sample.ls.p95_ms);
      power_hist.observe(sample.power_w);
      slack_hist.observe(slack);

      Partition next;
      {
        telemetry::Span span = tracer.start_span("decide");
        next = policy.decide(sample, enforcer.current());
        span.attr("action", policy.last_decision().action_string());
      }

      const bool changed = !(next == enforcer.current());
      if (changed) {
        telemetry::Span span = tracer.start_span("enforce");
        enforcer.apply(next);
        changes_counter.inc();
        span.attr("partition", next.to_string(server.machine()));
      }
      epoch.attr("qps", sample.qps_real)
          .attr("p95_ms", sample.ls.p95_ms)
          .attr("power_w", sample.power_w)
          .attr("slack", slack)
          .attr("action", policy.last_decision().action_string())
          .attr("changed", changed);
      result.intervals_run = t + 1;

      if (!sample.qos_met()) {
        violations_counter.inc();
        ++consecutive_violations;
        if (config.abort_after_violation_s > 0 &&
            consecutive_violations >= config.abort_after_violation_s) {
          result.aborted = true;
          epoch.attr("aborted", true);
          break;
        }
      } else {
        consecutive_violations = 0;
      }
    }
  } catch (...) {
    finalize();
    throw;
  }

  finalize();
  return result;
}

}  // namespace sturgeon::exp
