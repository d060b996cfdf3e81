// The benchmark's three workloads, each a closed-loop batch run (the
// next epoch starts when the previous one ends) of Sturgeon nodes that
// start cold on the all-to-LS partition:
//
//   pairs           the paper's Fig 9/10 experiment: every LS x BE
//                   catalog pair as one ClusterNode under its natural
//                   budget over the 240-s 20%->80%->20% ramp, stepped
//                   one node after another on one thread;
//   lockstep-chaos  256 nodes, every node steps every epoch, slack-
//                   harvest coordinator, comms over a lossy network and
//                   chaos_demo's node-fault schedule (without its
//                   actuator burst, see Workload) with every defense
//                   armed;
//   diurnal-10k     10,000 nodes on phase-offset diurnal load under the
//                   event engine: quiescence skipping, job churn, delta
//                   caps.
//
// The seed reaches every node, trace-noise, fault, network and churn
// stream through derive_seed; model training uses its own fixed
// TrainerConfig seed (the offline profiling campaign is not workload
// input). An Episode is one full simulation of a workload; episodes
// built from the same seed are bit-identical, which the harness checks
// through their digests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "fleet/fleet.h"
#include "timed_policy.h"

namespace perfbench {

enum class Kind { kPairs, kLockstepChaos, kDiurnal10k };

struct WorkloadShape {
  Kind kind = Kind::kPairs;
  std::string name;
  int nodes = 0;
  int epochs = 0;
  std::size_t threads = 1;  ///< worker threads of the workload itself
  bool tiny = false;        ///< harness self-test size
  /// lockstep-chaos only: add chaos_demo's actuator-failure burst (the
  /// defect probe; see Workload's constructor).
  bool actuator_burst = false;
};

/// Returns false for an unknown name.
bool make_shape(const std::string& name, bool tiny, WorkloadShape& out);

struct EpisodeOptions {
  bool decorated = true;  ///< install TimedPolicy on every node
  bool keep_spans = false;
  std::size_t threads = 1;
};

/// Per-node span of one ClusterNode::step (pairs only; the engines step
/// fleet nodes internally).
struct StepSpan {
  int t = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Flat simulated statistics of an episode, in a fixed order.
using Stats = std::vector<std::pair<std::string, double>>;

struct EpisodeResult {
  double run_s = 0.0;  ///< host time of the stepping phase
  double cpu_s = 0.0;  ///< process CPU time of the stepping phase
  std::int64_t run_start_ns = 0;
  std::int64_t run_end_ns = 0;
  std::uint64_t node_epochs = 0;  ///< stepped + skipped
  std::uint64_t digest = 0;       ///< over every simulated statistic
  Stats stats;
  std::uint64_t decides = 0;
  std::uint64_t model_calls = 0;  ///< Predictor invocations in the run
  std::vector<std::int64_t> decide_ns;  ///< thread CPU time per decide()
  std::vector<std::int64_t> decide_wall_ns;
  std::vector<std::vector<DecideSpan>> decide_spans;  ///< per node
  std::vector<std::vector<StepSpan>> step_spans;      ///< per node (pairs)
};

/// One built, not yet run, simulation of a workload.
class Episode {
 public:
  virtual ~Episode() = default;
  virtual EpisodeResult run() = 0;
  /// After run(): what the per-layer probes replay at this shape.
  virtual std::vector<sturgeon::cluster::NodeReport> reports() = 0;
  virtual std::vector<double> idle_w() = 0;
  virtual double budget_w() const = 0;
  /// Roll-up JSONL for tools/trace_stats.py (--fleet); false = none.
  virtual bool write_rollup(const std::string& path) const = 0;
};

class Workload {
 public:
  Workload(WorkloadShape shape, std::uint64_t seed, Clock::time_point origin);

  const WorkloadShape& shape() const { return shape_; }

  /// Train every model the workload needs (exp::warm_models) from an
  /// empty model registry.
  void train();
  /// Build a fresh episode (models must be trained).
  std::unique_ptr<Episode> build(const EpisodeOptions& options) const;

  /// The fleet configuration (fleet workloads) and a node spec the
  /// probes can instantiate on their own.
  const sturgeon::fleet::FleetConfig& fleet_config() const { return fleet_; }
  sturgeon::cluster::NodeSpec probe_spec() const;
  /// Cap the probe node runs under: its share of the fleet budget.
  double probe_cap_fraction() const;
  const sturgeon::core::TrainerConfig& trainer() const { return trainer_; }

 private:
  std::vector<sturgeon::cluster::NodeSpec> specs(bool decorated,
                                                 bool keep_spans) const;

  WorkloadShape shape_;
  std::uint64_t seed_;
  Clock::time_point origin_;
  sturgeon::core::TrainerConfig trainer_;
  sturgeon::fleet::FleetConfig fleet_;
};

}  // namespace perfbench
