// Preference-aware resource balancer (paper Section VI, Algorithm 2).
//
// When the LS service runs short of slack despite the predictor's
// configuration -- contention on unmanaged resources, OS interference --
// the balancer harvests resources from the BE application with
// "binary-harvest" granularity: it starts at half of what the BE side
// owns, picks whichever of {cores, cache ways, power (frequency swap)}
// the predictor says costs the least BE throughput without breaking the
// power budget, observes the next interval, reverts half on an excessive
// harvest, and halves the granularity until slack returns to the
// [alpha, beta] band.
//
// One robustness refinement over the paper's Algorithm 2: the balancer
// tracks whether the previous harvest actually improved the measured
// slack. A resource type whose harvest bought no improvement is excluded
// for the rest of the sequence, so a CPU-capacity overload cannot keep
// soaking up cheap-but-useless cache harvests while the queue grows.
// (All types excluded resets the exclusion set.)
#pragma once

#include <optional>
#include <string>

#include "core/predictor.h"

namespace sturgeon::telemetry {
class Counter;
class MetricsRegistry;
class Tracer;
}  // namespace sturgeon::telemetry

namespace sturgeon::core {

struct BalancerConfig {
  double alpha = 0.10;  ///< lower slack bound (Algorithm 1/2)
  double beta = 0.20;   ///< upper slack bound
  /// Initial harvest granularity as a fraction of the BE side's holdings
  /// (Algorithm 2 line 2 uses 0.5, the "binary-harvest" default).
  double initial_granularity = 0.5;
};

class ResourceBalancer {
 public:
  ResourceBalancer(const Predictor& predictor, double power_budget_w,
                   BalancerConfig config = {});

  /// Re-arm after the predictor installs a fresh configuration: resets
  /// the granularity to half of the BE side's current holdings (line 2).
  void arm(const Partition& current);

  /// One Algorithm 2 iteration. Returns the partition to apply next, or
  /// nullopt when slack is inside [alpha, beta] (nothing to fine-tune).
  std::optional<Partition> step(double slack, double qps_real,
                                const Partition& current);

  /// True while a harvest sequence is in flight (granularity not yet
  /// exhausted and slack was recently outside the band).
  bool active() const { return active_; }

  const BalancerConfig& config() const { return config_; }

  /// Retarget the power budget the harvest options are checked against
  /// (cluster re-caps); applies from the next step(). Must be > 0.
  void set_power_budget(double watts);

  /// Which resource the last harvest took ("cores", "ways", "power",
  /// "revert" or ""); exposed for tracing and tests.
  const std::string& last_action() const { return last_action_; }

  /// Report "balancer.harvests"/"balancer.reverts" counters and
  /// "balance_step" spans through the given registry/tracer (nullptr =
  /// off). Both must outlive the balancer; the controller rebinds on
  /// every TelemetryContext attach.
  void bind_telemetry(telemetry::MetricsRegistry* metrics,
                      telemetry::Tracer* tracer);

 private:
  enum class Resource { kCores, kWays, kPower };

  /// Candidate partition after harvesting `amount` units of `r`, or
  /// nullopt if the move is not expressible (e.g. BE already minimal).
  std::optional<Partition> harvested(const Partition& current, Resource r,
                                     int amount) const;

  const Predictor& predictor_;
  double budget_w_;
  BalancerConfig config_;

  bool active_ = false;
  double g_cores_ = 0.0;  ///< current granularity per resource type
  double g_ways_ = 0.0;
  double g_freq_ = 0.0;
  std::optional<Resource> last_harvest_;
  int last_amount_ = 0;
  std::string last_action_;
  double slack_at_harvest_ = 0.0;     ///< measured slack when we harvested
  bool ineffective_[3] = {false, false, false};  ///< per-Resource exclusion

  telemetry::Tracer* tracer_ = nullptr;
  telemetry::Counter* harvests_counter_ = nullptr;
  telemetry::Counter* reverts_counter_ = nullptr;
};

}  // namespace sturgeon::core
