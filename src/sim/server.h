// SimulatedServer: the co-located machine, stepped in 1 s controller
// intervals. Combines the M/G/k LS queue, the BE throughput model, the
// LLC way model, the package power model and the interference processes
// into the response surface a Sturgeon-style controller observes:
//
//   partition <C1,F1,L1; C2,F2,L2> + load  ->  (p95 latency, BE
//   throughput, package power, bandwidth, violations)
//
// It is the stand-in for the paper's Xeon + CAT + RAPL + tailbench
// testbed (see DESIGN.md section 2).
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "sim/interference.h"
#include "sim/ls_queue.h"
#include "sim/power_model.h"
#include "util/types.h"
#include "workloads/app_profile.h"

namespace sturgeon::sim {

/// Per-slice view of one telemetry sample: how each co-scheduled
/// workload fared this interval, LS then BE; the fields not applicable
/// to a slice's kind stay zero.
struct SliceTelemetry {
  WorkloadKind kind = WorkloadKind::kBestEffort;
  AppSlice slice;              ///< resources the workload held
  double p95_ms = 0.0;         ///< LS only
  double qos_target_ms = 0.0;  ///< LS only
  bool qos_met = true;         ///< LS only; always true for BE
  double throughput = 0.0;       ///< BE only (abstract ops/s)
  double throughput_norm = 0.0;  ///< BE only, normalized to solo
};

/// One 1 s telemetry sample, the unit of observation for controllers and
/// for offline model training.
struct ServerTelemetry {
  double load_fraction = 0.0;  ///< input load (0..1 of LS peak)
  double qps_real = 0.0;       ///< real-scale queries per second

  IntervalStats ls;            ///< queueing stats (latencies in ms)
  double qos_target_ms = 0.0;

  double power_w = 0.0;        ///< package power (RAPL analogue), peak of
                               ///< the interval as the paper trains on
  double bw_gbps = 0.0;        ///< total memory traffic

  double be_throughput = 0.0;       ///< abstract ops/s
  double be_throughput_norm = 0.0;  ///< normalized to the solo run
  double be_ipc = 0.0;              ///< per-core-cycle efficiency proxy

  double interference_factor = 1.0;  ///< hidden disturbance (ground truth;
                                     ///< controllers must not read this)

  /// Per-workload breakdown, LS then BE; the scalar fields above are
  /// their roll-up.
  std::array<SliceTelemetry, 2> slices;

  bool qos_met() const { return ls.p95_ms <= qos_target_ms; }
};

struct ServerConfig {
  MachineSpec machine = MachineSpec::xeon_e5_2630_v4();
  PowerCoefficients power = {};
  InterferenceConfig interference = {};
  /// Gaussian relative noise on reported power (sensor jitter).
  double power_noise = 0.01;
};

class SimulatedServer {
 public:
  SimulatedServer(const LsProfile& ls, const BeProfile& be,
                  std::uint64_t seed, ServerConfig config = {});

  /// Apply a resource configuration; takes effect from the next step()
  /// (the few-ms actuation latency of cpuset/CAT/DVFS is below the 1 s
  /// interval resolution). Throws std::invalid_argument unless
  /// p.enforceable_on(machine): an empty BE slice (cores == 0) is allowed,
  /// it models the paper's initial all-to-LS allocation.
  void set_partition(const Partition& p);
  const Partition& partition() const { return partition_; }

  /// Advance one second at `load_fraction` of the LS peak load.
  ServerTelemetry step(double load_fraction);

  /// Restart queue/interference state (new experiment, same profiles).
  void reset();

  const MachineSpec& machine() const { return config_.machine; }
  const LsProfile& ls_profile() const { return ls_; }
  const BeProfile& be_profile() const { return be_; }
  const PowerModel& power_model() const { return power_model_; }

  /// Solo-run BE throughput (whole machine, max frequency): the paper's
  /// normalization baseline for Figs 3 and 10.
  double be_solo_throughput() const;

  /// The node power budget: package power when the LS service alone runs
  /// the whole machine at its peak load (paper Section III-B).
  double power_budget_w() const;

  /// Mean per-request LS demand (ms) under slice `s` with bandwidth
  /// overcommit `bw_overcommit` and interference `interference`; exposed
  /// for calibration tests.
  double ls_mean_demand_ms(const AppSlice& s, double bw_overcommit,
                           double interference) const;

  /// BE throughput (abstract ops/s) for slice `s` before bandwidth
  /// contention; exposed for calibration tests.
  double be_raw_throughput(const AppSlice& s) const;

 private:
  /// Bandwidth demand of each side and the resulting overcommit ratio.
  struct BwState {
    double ls_gbps = 0.0;
    double be_gbps = 0.0;
    double overcommit = 0.0;  ///< max(0, total/capacity - 1)
  };
  BwState bandwidth_state(double load_fraction, double be_thr_raw) const;

  LsProfile ls_;
  BeProfile be_;
  ServerConfig config_;
  PowerModel power_model_;
  Partition partition_;
  LsQueueSim queue_;
  InterferenceProcess interference_;
  Rng noise_rng_;
};

}  // namespace sturgeon::sim
