// Sharded prediction memo layer between the Predictor and its trained
// models (overhead optimization, paper Section VII-E).
//
// Every search flavor asks the models the same questions over and over:
// the slice space is tiny (at most (C+1) x (F+1) x (L+1) = a few thousand
// configurations on the paper platform) while one exhaustive search alone
// issues 40000+ predictions. The cache therefore stores *dense tables*
// indexed by slice, one table per (model role, QPS bucket). A miss fills
// the whole table with a single predict_batch sweep -- columnar inference
// through the ml layer -- and every later query at that load is an array
// lookup.
//
// Bit-identity contract: quantized QPS buckets only bound how many tables
// are retained; they never change *values*. Each table remembers the
// exact real-scale QPS it was filled at, and a same-bucket query at a
// different exact QPS refills the table at the new load. Combined with
// the ml layer's bit-identical predict_batch implementations, a cached
// search returns exactly the partition, feasibility flag, and predicted
// throughput/power of an uncached one.
//
// Thread safety: lookups are safe from any number of threads (the
// parallel search hits the cache concurrently). Each shard owns a mutex;
// a filling thread holds its shard lock for the duration of the batch
// sweep so concurrent workers never duplicate the work. Published tables
// are immutable (shared_ptr<const>), so readers touch them lock-free
// once fetched. invalidate() may not race with lookups.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "telemetry/monitor.h"
#include "util/thread_annotations.h"
#include "util/types.h"

namespace sturgeon::core {

/// Dense index over every (cores, freq_level, llc_ways) slice of a
/// machine, each dimension including 0, so complement and degenerate
/// slices index without special cases. The predictor's BE tables and the
/// cache's tables share this geometry. index() checks its argument in
/// every build: a slice outside the machine throws std::out_of_range.
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

struct PredictionCacheConfig {
  /// Real-scale QPS per bucket. Only bounds table count (see above).
  double qps_bucket_width = 50.0;
  std::size_t num_shards = 8;
};

/// Per-role model invocation counts (overhead accounting). A snapshot of
/// the Predictor's live counters; fills add the whole batch size.
struct ModelCallBreakdown {
  std::uint64_t ls_qos = 0;
  std::uint64_t ls_power = 0;
  std::uint64_t be_ipc = 0;
  std::uint64_t be_power = 0;

  std::uint64_t total() const { return ls_qos + ls_power + be_ipc + be_power; }
};

/// The Predictor's live per-role invocation counters. Thread-safe: the
/// parallel search invokes models concurrently.
struct ModelCallCounters {
  mutable std::atomic<std::uint64_t> ls_qos{0};
  mutable std::atomic<std::uint64_t> ls_power{0};
  mutable std::atomic<std::uint64_t> be_ipc{0};
  mutable std::atomic<std::uint64_t> be_power{0};

  ModelCallBreakdown snapshot() const;
  void reset();
};

class PredictionCache {
 public:
  /// Fills receive the exact query QPS and a table sized table_size();
  /// entry i is the model output for slice_at(i).
  using FillInt = std::function<void(double qps_real, std::vector<int>&)>;
  using FillDouble =
      std::function<void(double qps_real, std::vector<double>&)>;

  PredictionCache(const MachineSpec& machine, PredictionCacheConfig config);

  /// Lookup-or-fill for each model role. LS tables are keyed by QPS
  /// bucket; BE tables are load-independent (the paper's BE models see a
  /// fixed native input level) so a single table serves every query.
  int ls_qos(double qps_real, const AppSlice& slice, const FillInt& fill);
  double ls_power(double qps_real, const AppSlice& slice,
                  const FillDouble& fill);
  double be_ipc(const AppSlice& slice, const FillDouble& fill);
  double be_power(const AppSlice& slice, const FillDouble& fill);

  /// Drop every table and bump the generation counter (model swap).
  /// Not safe against concurrent lookups.
  void invalidate();

  telemetry::PredictionCacheStats stats() const;

  /// Dense-table geometry (see SliceGrid).
  std::size_t table_size() const { return grid_.size(); }
  std::size_t slice_index(const AppSlice& slice) const {
    return grid_.index(slice);
  }
  AppSlice slice_at(std::size_t index) const { return grid_.at(index); }

 private:
  struct LsEntry {
    double qos_qps = -1.0;
    std::shared_ptr<const std::vector<int>> qos;
    double power_qps = -1.0;
    std::shared_ptr<const std::vector<double>> power;
  };
  struct Shard {
    Mutex mu;
    std::unordered_map<std::int64_t, LsEntry> buckets STURGEON_GUARDED_BY(mu);
  };

  std::int64_t bucket_of(double qps_real) const;
  Shard& shard_of(std::int64_t bucket);

  SliceGrid grid_;
  PredictionCacheConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;

  Mutex be_mu_;
  std::shared_ptr<const std::vector<double>> be_ipc_table_
      STURGEON_GUARDED_BY(be_mu_);
  std::shared_ptr<const std::vector<double>> be_power_table_
      STURGEON_GUARDED_BY(be_mu_);

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> fills_{0};
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace sturgeon::core
