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
// bit-identical to a scalar predict(); lookups invoke no model.
//
// With enable_cache() the predictor answers through a sharded memo layer
// (see prediction_cache.h): an LS miss fills a dense per-load table with
// one predict_batch sweep and later queries become array lookups; the
// cache's BE tables are copies of the predictor's. Cached answers are
// bit-identical to uncached ones; only LS cache *fills* count as model
// invocations, so steady-state searches report ~0 predictions.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/prediction_cache.h"
#include "core/trainer.h"
#include "util/types.h"

namespace sturgeon::core {

class Predictor {
 public:
  /// Takes ownership of the trained models.
  Predictor(const MachineSpec& machine, TrainedModels models);

  /// QoS feasibility of an LS slice at real-scale load `qps_real`. A
  /// non-null `calls` gets the model evaluations this query caused added
  /// to it: 1 on the scalar path; with the cache, the whole batch of a
  /// fill the query triggered, 0 on a hit.
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

  /// Install the sharded prediction cache. Not safe against concurrent
  /// predictions; call before sharing the predictor across threads.
  void enable_cache(PredictionCacheConfig config = {});
  void disable_cache();
  bool cache_enabled() const { return cache_ != nullptr; }

  /// Replace the trained models (e.g. after retraining), refill the BE
  /// tables and invalidate any cached tables. Not safe against concurrent
  /// predictions.
  void swap_models(TrainedModels models);

  /// Cache counters; all-zero when the cache is disabled.
  telemetry::PredictionCacheStats cache_stats() const;

  /// Cumulative number of model invocations (overhead accounting).
  /// Thread-safe: the parallel search invokes models concurrently.
  /// Table and cache hits are array lookups, not invocations; a fill (the
  /// BE tables' at construction and swap_models(), an LS cache fill) adds
  /// the whole batch it swept.
  std::uint64_t model_invocations() const {
    return counters_.snapshot().total();
  }
  /// Per-role split of model_invocations().
  ModelCallBreakdown model_call_breakdown() const {
    return counters_.snapshot();
  }
  void reset_invocation_count() { counters_.reset(); }

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

  /// LS cache fills: one predict_batch sweep over every grid slice, with
  /// the same feature encoding and output post-processing as the scalar
  /// paths (bit-identity contract).
  void fill_ls_qos_table(double qps_real, std::vector<int>& table) const;
  void fill_ls_power_table(double qps_real, std::vector<double>& table) const;

  MachineSpec machine_;
  SliceGrid grid_;
  TrainedModels models_;
  ModelCallCounters counters_;
  BeTables be_;
  std::unique_ptr<PredictionCache> cache_;
};

}  // namespace sturgeon::core
