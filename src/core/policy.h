// Co-location policy interface: one decision per 1 s interval, mapping
// the latest telemetry sample to the allocation for the next interval.
// Sturgeon, Sturgeon-NoB and the baseline controllers all implement this,
// so the experiment harness can drive them interchangeably.
//
// Observability contract (uniform across every implementation):
//   - describe() is a one-line, human-readable summary of the policy and
//     its tuning (for run headers and trace metadata);
//   - last_decision() reports what the most recent decide() call chose
//     and why, replacing per-class ad-hoc getters;
//   - attach_telemetry() hands the policy the run's TelemetryContext.
//     Policies report counters/gauges/spans through it; a policy always
//     has a context (a private no-op sink from birth), so instrument
//     updates never need a null check.
//
// Decisions are Partitions: decide(Partition) is the required override
// (every policy co-locates one LS service with one BE application). The
// decide(Allocation) overload adapts exactly at K = 2 and throws for any
// other slice count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/server.h"
#include "util/types.h"

namespace sturgeon::telemetry {
class TelemetryContext;
}  // namespace sturgeon::telemetry

namespace sturgeon::core {

/// Machine-readable decision tag. The free-form detail string refines the
/// tag ("balance" + "cores", "power_cap" + "freq"); exporters render both
/// via PolicyDecision::action_string(), which reproduces the historical
/// "tag:detail" wire format exactly.
enum class Action {
  kNone,      ///< no decision yet (pre-first-decide / post-reset)
  kHold,      ///< keep the current allocation
  kSearch,    ///< adopted a model-searched configuration
  kBalance,   ///< feedback balancer moved a resource unit
  kRevert,    ///< undid the previous probe/adjustment
  kStatic,    ///< fixed allocation (no management)
  kUpsize,    ///< grew the LS share of a resource
  kDownsize,  ///< harvested a resource unit from the LS share
  kProbe,     ///< speculative downsize while healthy
  kSeedBe,    ///< gave an empty BE side its first minimal slice
  kPowerCap,  ///< backed off to respect the power budget
  kBeBoost,   ///< opportunistically raised the BE frequency
  kSafeMode,  ///< watchdog forced the known-safe allocation
};

const char* to_string(Action action);

/// What the last decide() call chose, uniformly across policies.
struct PolicyDecision {
  std::uint64_t epoch = 0;  ///< 1-based decide() counter since reset()
  Partition partition;      ///< the returned partition (empty before any)
  Action action = Action::kNone;
  std::string detail;  ///< optional refinement, e.g. "cores", "freq"
  double slack = 0.0;  ///< measured slack this decision saw (0 if unused)
  /// Model expectations backing the decision; 0 for model-free policies.
  double predicted_throughput = 0.0;
  double predicted_power_w = 0.0;

  /// Historical wire format for exporters: "hold", "balance:cores",
  /// "power_cap:freq", ... -- to_string(action) plus ":detail" when set.
  std::string action_string() const;
};

class Policy {
 public:
  Policy();
  virtual ~Policy() = default;

  virtual std::string name() const = 0;

  /// One-line description of the policy and its tuning knobs.
  virtual std::string describe() const { return name(); }

  /// Forget controller state (new run).
  virtual void reset() = 0;

  /// Observe the last interval's telemetry and choose the partition for
  /// the next interval. Note: `sample.interference_factor` is simulator
  /// ground truth and MUST NOT be read by policies -- controllers only
  /// see what RAPL / latency instrumentation would expose.
  virtual Partition decide(const sim::ServerTelemetry& sample,
                           const Partition& current) = 0;

  /// Slice-list entry point: handles exactly K = 2 by delegating to the
  /// pair decide() above (bit-identical round trip) and throws
  /// std::invalid_argument for any other K. Decorators forward it.
  virtual Allocation decide(const sim::ServerTelemetry& sample,
                            const Allocation& current);

  /// What the most recent decide() chose; default-initialized before the
  /// first call and after reset().
  const PolicyDecision& last_decision() const { return last_decision_; }

  /// Whether set_power_cap() actually retargets this policy. Callers that
  /// distribute caps (cluster::ClusterNode) consult this to count dropped
  /// caps instead of silently losing them.
  virtual bool supports_power_cap() const { return false; }

  /// Update the power budget (watts) this policy must keep the node
  /// under. The cluster-level PowerCoordinator re-caps nodes between
  /// epochs; power-aware policies (Sturgeon, PARTIES, Heracles) retarget
  /// their budget checks and report supports_power_cap() == true; the
  /// default ignores the cap (policies with no power notion, e.g.
  /// Static). Takes effect from the next decide().
  virtual void set_power_cap(double /*watts*/) {}

  /// Route this policy's instruments/spans through `context` (the node
  /// runtime calls this before reset()). Null restores the built-in
  /// no-op sink.
  void attach_telemetry(std::shared_ptr<telemetry::TelemetryContext> context);

  telemetry::TelemetryContext& telemetry() const { return *telemetry_; }

 protected:
  /// Start recording decision `epoch + 1`; clears every other field.
  PolicyDecision& begin_decision();
  /// Forget the decision history (implementations call from reset()).
  void clear_decision() { last_decision_ = PolicyDecision{}; }

  /// Re-fetch cached instrument references after a context change.
  virtual void on_telemetry_attached() {}

  PolicyDecision last_decision_;

 private:
  std::shared_ptr<telemetry::TelemetryContext> telemetry_;
};

}  // namespace sturgeon::core
