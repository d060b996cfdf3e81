// Tables over a machine's slice grid that answer model queries without
// running the model: the certified answers of an LS QoS classifier over
// the whole LS slice space (paper Section V-B asks it O(N log N)
// questions per search), and the BE models' answers per slice.
//
// The classifier's input is {kQPS, cores, GHz, ways}. Per (cores,
// P-state, ways) slice only the QPS varies, so the table covers each
// slice's QPS range [0, qps_max] with segments on which the classifier's
// interval pass (ml::Classifier::box_label) proves one label. Where no
// label is proven down to kFloorQps the segment stays an unproven
// sliver, and lookup() sends the caller to the model. A proven answer is
// exactly the label predict() returns for that query; DESIGN.md §5 gives
// the argument. The table is immutable once built and is shared by every
// predictor of one LS model set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ml/model.h"
#include "util/types.h"

namespace sturgeon {
class ThreadPool;
}  // namespace sturgeon

namespace sturgeon::core {

/// Dense index over every (cores, freq_level, llc_ways) slice of a
/// machine, each dimension including 0, so complement and degenerate
/// slices index without special cases. The predictor's BE tables and the
/// LS QoS table use this geometry. index() checks its argument in every
/// build: a slice outside the machine throws std::out_of_range.
class SliceGrid {
 public:
  explicit SliceGrid(const MachineSpec& machine);

  std::size_t size() const { return size_; }

  bool contains(const AppSlice& slice) const {
    return slice.cores >= 0 && slice.cores <= max_cores_ &&
           slice.freq_level >= 0 && slice.freq_level < levels_ &&
           slice.llc_ways >= 0 && slice.llc_ways < ways_;
  }

  std::size_t index(const AppSlice& slice) const {
    if (!contains(slice)) throw_outside(slice);
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

class LsQosTable {
 public:
  /// lookup() result where no label is proven: ask the model.
  static constexpr int kUnproven = -1;

  /// Bisection stops at QPS intervals this narrow and leaves them
  /// unproven.
  static constexpr double kFloorQps = 0.5;

  /// One QPS segment of a slice: it ends at `end` (inclusive) and starts
  /// where the slice's previous segment ends, or at 0.
  struct Segment {
    double end = 0.0;
    int label = kUnproven;
  };

  /// Cover every slice of `machine` with at least one core and one way
  /// over QPS [0, qps_max]. `qos` must have an interval pass. Slices are
  /// split across `pool` when one is given (nullptr = this thread); the
  /// result does not depend on the pool. Throws std::logic_error when
  /// called from one of `pool`'s own workers (ThreadPool::parallel_for).
  LsQosTable(const ml::Classifier& qos, const MachineSpec& machine,
             double qps_max, ThreadPool* pool = nullptr);

  /// The label qos.predict() returns for the LS feature row of
  /// (qps_real, slice), or kUnproven: inside a sliver, outside
  /// [0, qps_max], or for a slice outside the table.
  int lookup(const AppSlice& slice, double qps_real) const {
    if (!grid_.contains(slice) || !(qps_real >= 0.0)) return kUnproven;
    const std::size_t i = grid_.index(slice);
    for (std::uint32_t k = first_[i]; k < first_[i + 1]; ++k) {
      if (qps_real <= segments_[k].end) return segments_[k].label;
    }
    return kUnproven;
  }

  /// The segments of `slice` in QPS order (empty outside the table).
  std::span<const Segment> segments(const AppSlice& slice) const;

  double qps_max() const { return qps_max_; }

  /// Whether the table's features are those `machine` gives a slice: a
  /// table built for another machine answers other questions.
  bool built_for(const MachineSpec& machine) const;

 private:
  MachineSpec machine_;
  SliceGrid grid_;
  double qps_max_;
  /// Slice i owns segments_[first_[i], first_[i + 1]).
  std::vector<std::uint32_t> first_;
  std::vector<Segment> segments_;
};

/// The BE models' answers over every slice of a machine. The BE models
/// see no load input, so one scalar predict() of each model per slice
/// with at least one core answers every BE query; each answer is
/// validated and clamped at 0, and cores == 0 entries stay 0.0 (an
/// empty BE slice draws no power and retires nothing). Immutable once
/// built, and shared by every predictor of one BE model set.
class BeTables {
 public:
  BeTables(const ml::Regressor& ipc, const ml::Regressor& power,
           const MachineSpec& machine);

  /// Answers indexed by SliceGrid::index() of the machine's grid.
  const std::vector<double>& ipc() const { return ipc_; }
  const std::vector<double>& power_w() const { return power_w_; }

  /// The predict() calls the fill ran: one per model and slice with at
  /// least one core.
  std::uint64_t model_calls() const { return model_calls_; }

  /// As LsQosTable::built_for().
  bool built_for(const MachineSpec& machine) const;

 private:
  MachineSpec machine_;
  std::vector<double> ipc_;
  std::vector<double> power_w_;
  std::uint64_t model_calls_ = 0;
};

}  // namespace sturgeon::core
