// Sturgeon's top-level controller (paper Algorithm 1).
//
// Every second the controller reads the LS service's load and tail
// latency, computes slack = (target - latency) / target, and when slack
// leaves the [alpha, beta] band either re-runs the predictor-driven
// configuration search (Section V) or lets the preference-aware balancer
// fine-tune the allocation (Section VI). Setting
// `options.enable_balancer = false` yields the paper's Sturgeon-NoB
// ablation.
//
// Persistent compensation (extension): the offline models are blind to
// co-runner contention by design (they are trained on solo profiling
// runs), so a fresh search would re-install exactly the configuration the
// balancer just spent several intervals compensating. The controller
// therefore remembers the balancer's *net* harvests as per-resource
// reserves and re-applies them on top of every search result; reserves
// halve after a calm period so transient interference does not permanently
// tax the BE application.
//
// Observability: every decide() opens child spans (features, search,
// balance) under the caller's epoch span and reports through the
// attached TelemetryContext -- counters "controller.searches",
// "controller.balancer_actions", "controller.decisions",
// "controller.model_calls" (the model evaluations this node's searches
// caused), "controller.power_fallbacks" (searches that kept all-to-LS
// because every candidate busted the power budget,
// SearchResult::power_fallback), and gauges for the compensation
// reserves and the power cap.
// searches_run()/balancer_actions() read those registry instruments.
#pragma once

#include <cstdint>
#include <memory>

#include "core/balancer.h"
#include "core/config_search.h"
#include "core/policy.h"

namespace sturgeon::telemetry {
class Counter;
class Gauge;
}  // namespace sturgeon::telemetry

namespace sturgeon::core {

struct SturgeonOptions {
  double alpha = 0.10;          ///< paper default lower slack bound
  double beta = 0.20;           ///< paper default upper slack bound
  bool enable_balancer = true;  ///< false = Sturgeon-NoB
  /// Initial balancer harvest granularity (fraction of BE holdings).
  double balancer_granularity = 0.5;
  /// Calm intervals (slack >= alpha, no balancer action) after which the
  /// compensation reserves decay by half. See class comment.
  int reserve_decay_interval_s = 20;
};

class SturgeonController : public Policy {
 public:
  /// `qos_target_ms` is the LS service's target; `power_budget_w` the
  /// node budget. The predictor is shared (models are immutable).
  SturgeonController(std::shared_ptr<const Predictor> predictor,
                     double qos_target_ms, double power_budget_w,
                     SturgeonOptions options = {});

  std::string name() const override;
  std::string describe() const override;
  void reset() override;
  using Policy::decide;
  Partition decide(const sim::ServerTelemetry& sample,
                   const Partition& current) override;

  bool supports_power_cap() const override { return true; }

  /// Retarget the node budget the search and the balancer admit
  /// configurations under (cluster coordinator re-caps). Unlike reset(),
  /// controller state (reserves, balancer sequence) is kept: a cap change
  /// is a budget move, not a new run.
  void set_power_cap(double watts) override;

  double power_budget_w() const { return search_.power_budget_w(); }

  /// Cumulative number of predictor searches run (overhead accounting);
  /// reads the "controller.searches" registry counter.
  std::uint64_t searches_run() const;

  /// Cumulative balancer interventions applied ("controller.
  /// balancer_actions" counter).
  std::uint64_t balancer_actions() const;

  const ResourceBalancer& balancer() const { return balancer_; }

  /// The shared predictor (e.g. for invocation statistics).
  const Predictor& predictor() const { return *predictor_; }

  /// Current compensation reserves (for tracing/tests).
  struct Reserves {
    int cores = 0;
    int ways = 0;
    int freq = 0;  ///< BE P-state reduction
  };
  const Reserves& reserves() const { return reserves_; }

 protected:
  void on_telemetry_attached() override;

 private:
  /// Shift `p` LS-ward by the current reserves (clamped so the BE slice
  /// stays minimally viable).
  Partition apply_reserves(Partition p) const;

  /// Record `p` as the epoch's outcome on last_decision() and the
  /// registry gauges, then hand it back to the caller.
  Partition finish_decision(const Partition& p, Action action,
                            std::string detail, double predicted_throughput,
                            double predicted_power_w);

  /// Cache instrument references from the current context.
  void rebind_instruments();

  std::shared_ptr<const Predictor> predictor_;
  double qos_target_ms_;
  SturgeonOptions options_;
  ConfigSearch search_;
  ResourceBalancer balancer_;
  bool balancer_armed_ = false;
  Reserves reserves_;
  int calm_intervals_ = 0;

  telemetry::Counter* decisions_counter_ = nullptr;
  telemetry::Counter* searches_counter_ = nullptr;
  telemetry::Counter* balancer_actions_counter_ = nullptr;
  // Looked up on first use after each attach, so a controller that never
  // searches, decides or re-caps registers nothing for them.
  telemetry::Counter* model_calls_counter_ = nullptr;
  telemetry::Counter* power_fallbacks_counter_ = nullptr;
  telemetry::Gauge* power_cap_gauge_ = nullptr;
  telemetry::Gauge* reserve_cores_gauge_ = nullptr;
  telemetry::Gauge* reserve_ways_gauge_ = nullptr;
  telemetry::Gauge* reserve_freq_gauge_ = nullptr;
};

}  // namespace sturgeon::core
