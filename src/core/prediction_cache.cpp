#include "core/prediction_cache.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/check.h"

namespace sturgeon::core {

ModelCallBreakdown ModelCallCounters::snapshot() const {
  ModelCallBreakdown b;
  b.ls_qos = ls_qos.load(std::memory_order_relaxed);
  b.ls_power = ls_power.load(std::memory_order_relaxed);
  b.be_ipc = be_ipc.load(std::memory_order_relaxed);
  b.be_power = be_power.load(std::memory_order_relaxed);
  return b;
}

void ModelCallCounters::reset() {
  ls_qos.store(0, std::memory_order_relaxed);
  ls_power.store(0, std::memory_order_relaxed);
  be_ipc.store(0, std::memory_order_relaxed);
  be_power.store(0, std::memory_order_relaxed);
}

SliceGrid::SliceGrid(const MachineSpec& machine)
    : max_cores_(machine.num_cores),
      levels_(machine.num_freq_levels()),
      ways_(machine.llc_ways + 1),
      size_(static_cast<std::size_t>(machine.num_cores + 1) *
            static_cast<std::size_t>(levels_) *
            static_cast<std::size_t>(ways_)) {}

void SliceGrid::throw_outside(const AppSlice& slice) {
  throw std::out_of_range("SliceGrid: slice <" + std::to_string(slice.cores) +
                          "C, level " + std::to_string(slice.freq_level) +
                          ", " + std::to_string(slice.llc_ways) +
                          "L> outside the machine");
}

AppSlice SliceGrid::at(std::size_t index) const {
  STURGEON_DCHECK(index < size_,
                  "SliceGrid::at: index " << index << " >= " << size_);
  const auto nf = static_cast<std::size_t>(levels_);
  const auto nw = static_cast<std::size_t>(ways_);
  AppSlice s;
  s.llc_ways = static_cast<int>(index % nw);
  s.freq_level = static_cast<int>((index / nw) % nf);
  s.cores = static_cast<int>(index / (nw * nf));
  return s;
}

PredictionCache::PredictionCache(const MachineSpec& machine,
                                 PredictionCacheConfig config)
    : grid_(machine), config_(config) {
  if (!std::isfinite(config.qps_bucket_width) ||
      config.qps_bucket_width <= 0.0) {
    throw std::invalid_argument("PredictionCache: bad qps_bucket_width");
  }
  if (config.num_shards < 1) {
    throw std::invalid_argument("PredictionCache: num_shards < 1");
  }
  shards_.reserve(config_.num_shards);
  for (std::size_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::int64_t PredictionCache::bucket_of(double qps_real) const {
  return static_cast<std::int64_t>(
      std::floor(qps_real / config_.qps_bucket_width));
}

PredictionCache::Shard& PredictionCache::shard_of(std::int64_t bucket) {
  const auto b = static_cast<std::uint64_t>(bucket);
  return *shards_[static_cast<std::size_t>(b % shards_.size())];
}

int PredictionCache::ls_qos(double qps_real, const AppSlice& slice,
                            const FillInt& fill) {
  const std::size_t idx = slice_index(slice);
  const std::int64_t bucket = bucket_of(qps_real);
  Shard& shard = shard_of(bucket);
  std::shared_ptr<const std::vector<int>> table;
  {
    MutexLock lock(shard.mu);
    LsEntry& e = shard.buckets[bucket];
    if (e.qos && e.qos_qps == qps_real) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      table = e.qos;
    } else {
      misses_.fetch_add(1, std::memory_order_relaxed);
      auto fresh = std::make_shared<std::vector<int>>(grid_.size(), 0);
      fill(qps_real, *fresh);
      fills_.fetch_add(1, std::memory_order_relaxed);
      e.qos = std::move(fresh);
      e.qos_qps = qps_real;
      table = e.qos;
    }
  }
  return (*table)[idx];
}

double PredictionCache::ls_power(double qps_real, const AppSlice& slice,
                                 const FillDouble& fill) {
  const std::size_t idx = slice_index(slice);
  const std::int64_t bucket = bucket_of(qps_real);
  Shard& shard = shard_of(bucket);
  std::shared_ptr<const std::vector<double>> table;
  {
    MutexLock lock(shard.mu);
    LsEntry& e = shard.buckets[bucket];
    if (e.power && e.power_qps == qps_real) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      table = e.power;
    } else {
      misses_.fetch_add(1, std::memory_order_relaxed);
      auto fresh = std::make_shared<std::vector<double>>(grid_.size(), 0.0);
      fill(qps_real, *fresh);
      fills_.fetch_add(1, std::memory_order_relaxed);
      e.power = std::move(fresh);
      e.power_qps = qps_real;
      table = e.power;
    }
  }
  return (*table)[idx];
}

double PredictionCache::be_ipc(const AppSlice& slice, const FillDouble& fill) {
  const std::size_t idx = slice_index(slice);
  std::shared_ptr<const std::vector<double>> table;
  {
    MutexLock lock(be_mu_);
    if (be_ipc_table_) {
      hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      misses_.fetch_add(1, std::memory_order_relaxed);
      auto fresh = std::make_shared<std::vector<double>>(grid_.size(), 0.0);
      fill(0.0, *fresh);
      fills_.fetch_add(1, std::memory_order_relaxed);
      be_ipc_table_ = std::move(fresh);
    }
    table = be_ipc_table_;
  }
  return (*table)[idx];
}

double PredictionCache::be_power(const AppSlice& slice,
                                 const FillDouble& fill) {
  const std::size_t idx = slice_index(slice);
  std::shared_ptr<const std::vector<double>> table;
  {
    MutexLock lock(be_mu_);
    if (be_power_table_) {
      hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      misses_.fetch_add(1, std::memory_order_relaxed);
      auto fresh = std::make_shared<std::vector<double>>(grid_.size(), 0.0);
      fill(0.0, *fresh);
      fills_.fetch_add(1, std::memory_order_relaxed);
      be_power_table_ = std::move(fresh);
    }
    table = be_power_table_;
  }
  return (*table)[idx];
}

void PredictionCache::invalidate() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->buckets.clear();
  }
  {
    MutexLock lock(be_mu_);
    be_ipc_table_.reset();
    be_power_table_.reset();
  }
  generation_.fetch_add(1, std::memory_order_relaxed);
}

telemetry::PredictionCacheStats PredictionCache::stats() const {
  telemetry::PredictionCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.fills = fills_.load(std::memory_order_relaxed);
  s.generation = generation_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace sturgeon::core
