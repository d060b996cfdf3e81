// Online performance/power predictor (paper Section V, Fig 5).
//
// For a configuration <C1,F1,L1; C2,F2,L2> at load Q the predictor
// answers, using only the offline-trained models:
//   - does the LS service meet its QoS target?       (ls_qos classifier)
//   - what is the total package power?               (ls_power + be_power)
//   - what BE throughput does the configuration buy? (be_ipc * C2 * F2)
// Model invocations are counted so the overhead experiments (paper
// Section VII-E) can report predictions-per-search.
//
// The BE models see no load input, so the constructor evaluates them
// once over every slice of the machine (one predict_batch sweep per
// model) and be_power_w()/be_ipc() become lock-free lookups in those
// immutable tables. The ml layer's batch contract makes each entry
// bit-identical to a scalar predict(); lookups invoke no model. Every LS
// query runs its model once.
#pragma once

#include <cstdint>
#include <vector>

#include "core/trainer.h"
#include "telemetry/metrics.h"
#include "util/types.h"

namespace sturgeon::core {

/// Dense index over every (cores, freq_level, llc_ways) slice of a
/// machine, each dimension including 0, so complement and degenerate
/// slices index without special cases. The predictor's BE tables use
/// this geometry. index() checks its argument in every build: a slice
/// outside the machine throws std::out_of_range.
class SliceGrid {
 public:
  explicit SliceGrid(const MachineSpec& machine);

  std::size_t size() const { return size_; }

  std::size_t index(const AppSlice& slice) const {
    if (slice.cores < 0 || slice.cores > max_cores_ ||
        slice.freq_level < 0 || slice.freq_level >= levels_ ||
        slice.llc_ways < 0 || slice.llc_ways >= ways_) {
      throw_outside(slice);
    }
    return static_cast<std::size_t>(
        (slice.cores * levels_ + slice.freq_level) * ways_ + slice.llc_ways);
  }

  /// Inverse of index(); `index` must be below size().
  AppSlice at(std::size_t index) const;

 private:
  [[noreturn]] static void throw_outside(const AppSlice& slice);

  int max_cores_;
  int levels_;  ///< P-states
  int ways_;    ///< way counts 0..llc_ways
  std::size_t size_;
};

class Predictor {
 public:
  /// Takes ownership of the trained models.
  Predictor(const MachineSpec& machine, TrainedModels models);

  /// QoS feasibility of an LS slice at real-scale load `qps_real`. A
  /// non-null `calls` gets the one model evaluation this query runs
  /// added to it.
  bool ls_qos_ok(double qps_real, const AppSlice& slice,
                 std::uint64_t* calls = nullptr) const;

  /// Predicted package power of the LS side alone (includes uncore);
  /// `calls` as for ls_qos_ok().
  double ls_power_w(double qps_real, const AppSlice& slice,
                    std::uint64_t* calls = nullptr) const;

  /// Predicted incremental power of the BE slice (a table lookup). A
  /// slice outside the machine throws std::out_of_range.
  double be_power_w(const AppSlice& slice) const;

  /// Predicted BE IPC (a table lookup, same range contract) and
  /// throughput (IPC x cores x GHz).
  double be_ipc(const AppSlice& slice) const;
  double be_throughput(const AppSlice& slice) const;

  /// Total package power of the co-location.
  double total_power_w(double qps_real, const Partition& p) const;

  /// The same total from the LS side's prediction `ls_w` (ls_power_w()):
  /// a caller that holds the LS slice fixed while it varies the BE slice
  /// pays for the LS model once.
  double combined_power_w(double ls_w, const AppSlice& be) const;

  const MachineSpec& machine() const { return machine_; }

  /// Cumulative number of model invocations (overhead accounting).
  /// Thread-safe: nodes sharing the predictor query it concurrently.
  /// BE table lookups are not invocations; the BE table fill at
  /// construction adds the whole batch it swept.
  std::uint64_t model_invocations() const {
    return invocations_.value();
  }

 private:
  struct BeTables {
    std::vector<double> power;
    std::vector<double> ipc;
  };

  static TrainedModels validate_models(TrainedModels models);

  /// Evaluate both BE models of `models` over every grid slice with at
  /// least one core, validated and clamped at 0 exactly like the scalar
  /// answer they replace; cores == 0 entries stay 0.0 (an empty BE slice
  /// draws no power and retires nothing).
  BeTables make_be_tables(const TrainedModels& models) const;

  MachineSpec machine_;
  SliceGrid grid_;
  TrainedModels models_;
  /// On its own cache line: every node of the pair bumps it on every LS
  /// query, from whichever worker thread steps the node, while those
  /// threads read the members around it.
  mutable telemetry::Counter invocations_;
  BeTables be_;
};

}  // namespace sturgeon::core
