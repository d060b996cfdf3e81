// Package power model (RAPL analogue).
//
//   P_pkg = P_uncore + sum over slices of
//           cores * (P_static + activity * k_dyn * f^alpha * u(util))
//           + k_bw * total_memory_bandwidth
//
// with u(util) = u_floor + (1 - u_floor) * util. The utilization floor
// models the energy non-proportionality of real servers (Barroso &
// Hoelzle, cited by the paper): an active core at low utilization still
// draws a large fraction of its busy power. This is exactly why the
// paper's Fig 2 overshoot is *moderate* (2-12.6%): the LS-at-peak budget
// already includes near-full static+active power, and co-location adds
// the BE's higher activity on top.
//
// f^alpha with alpha ~= 2.6 captures the superlinear V*f^2 growth of DVFS
// power, which makes frequency the most power-expensive resource --
// the property Sturgeon's "harvest power" option exploits.
#pragma once

#include "util/types.h"

namespace sturgeon::sim {

struct PowerCoefficients {
  double uncore_w = 18.0;     ///< package base (LLC, memory controller, IO)
  double core_static_w = 1.0; ///< per active core, frequency-independent
  double k_dyn = 0.6;         ///< dynamic scale: W per (GHz^alpha * activity)
  double alpha = 2.6;         ///< DVFS superlinearity exponent
  double util_floor = 0.7;    ///< u(0) -- energy non-proportionality
  double k_bw_w_per_gbps = 0.15;  ///< DRAM power per GB/s of traffic
};

class PowerModel {
 public:
  PowerModel(const MachineSpec& machine, PowerCoefficients coeffs = {});

  /// Power of `cores` cores at P-state `freq_level`, average utilization
  /// `util` in [0,1], and application activity factor `activity`.
  double slice_power_w(int cores, int freq_level, double util,
                       double activity) const;

  /// Full package power for two slices plus memory traffic.
  double package_power_w(const AppSlice& ls, double ls_util,
                         double ls_activity, const AppSlice& be,
                         double be_util, double be_activity,
                         double total_bw_gbps) const;

  /// Idle package power (no active cores, no traffic).
  double idle_power_w() const { return coeffs_.uncore_w; }

  /// Machine power capacity: the whole package busy at top frequency
  /// with unit activity and no memory traffic. Machine-only (no
  /// workload term); the physical upper bound a sane power sensor
  /// reading can never exceed (sensor sanitization).
  double max_package_power_w() const;

  const PowerCoefficients& coefficients() const { return coeffs_; }
  const MachineSpec& machine() const { return machine_; }

 private:
  MachineSpec machine_;
  PowerCoefficients coeffs_;
};

}  // namespace sturgeon::sim
