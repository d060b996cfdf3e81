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
// The BE models see no load input, so be_power_w()/be_ipc() are
// lock-free lookups in immutable per-slice tables (core/qos_table.h):
// the BE model set's own, which every predictor of the set shares, or,
// when the models come without tables for this machine, a fill the
// constructor runs itself. Lookups invoke no model.
//
// The LS QoS answer comes from the model set's certified table
// (core/qos_table.h) where it proves one, and from one model call
// otherwise: inside an unproven sliver, outside the table's QPS range,
// or when the classifier has no interval pass (no table). Either way it
// is the label the model returns. Every ls_power_w() query runs its
// model once.
#pragma once

#include <cstdint>
#include <memory>

#include "core/trainer.h"
#include "telemetry/metrics.h"
#include "util/types.h"

namespace sturgeon::core {

class Predictor {
 public:
  /// Takes ownership of the trained models.
  Predictor(const MachineSpec& machine, TrainedModels models);

  /// QoS feasibility of an LS slice at real-scale load `qps_real`. A
  /// non-null `calls` gets the model evaluation this query runs added to
  /// it: none when the QoS table answers, else one.
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

  /// The LS QoS table this predictor answers from; null when every QoS
  /// query runs the model.
  const LsQosTable* qos_table() const { return qos_table_; }

  /// Cumulative number of model invocations (overhead accounting).
  /// Thread-safe: nodes sharing the predictor query it concurrently.
  /// Table lookups (BE and LS QoS) are not invocations. A BE table fill
  /// the constructor runs itself adds one per model and slice it filled;
  /// the model sets' tables are built before any predictor and add
  /// nothing.
  std::uint64_t model_invocations() const {
    return invocations_.value();
  }

 private:
  static TrainedModels validate_models(TrainedModels models);

  MachineSpec machine_;
  SliceGrid grid_;
  TrainedModels models_;
  /// models_.ls_qos_table when it was built for machine_, else null.
  const LsQosTable* qos_table_ = nullptr;
  /// On its own cache line: every node of the pair bumps it on every LS
  /// model call, from whichever worker thread steps the node, while those
  /// threads read the members around it.
  mutable telemetry::Counter invocations_;
  /// models_.be_tables when they were built for machine_, else a fill of
  /// this predictor's own.
  std::shared_ptr<const BeTables> be_tables_;
  /// be_tables_'s answers, read without a pointer chase.
  const double* be_power_w_ = nullptr;
  const double* be_ipc_ = nullptr;
};

}  // namespace sturgeon::core
