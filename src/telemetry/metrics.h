// Typed metric instruments and the process-wide registry behind them.
//
// Every runtime counter in the system -- controller searches, balancer
// harvests, model invocations, per-phase latencies -- reports through one
// of three instruments:
//
//   Counter    monotone event count; one cache-line-aligned relaxed
//              atomic, so the config-search hot path pays one
//              uncontended fetch_add.
//   Gauge      last-observed value (slack, hit rate, reserve sizes).
//   Histogram  fixed-bucket distribution with snapshot-time quantiles
//              (phase durations, per-epoch p95/power).
//
// Instruments are owned by a MetricsRegistry and addressed by dotted
// lowercase names ("controller.searches", "phase.search.duration_us");
// see DESIGN.md section 7 for the naming conventions. Lookup takes a
// mutex, so hot paths fetch the instrument once and keep the reference;
// references stay valid for the registry's lifetime. Reads are
// snapshot-on-read: value()/snapshot() load without stopping writers.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.h"

namespace sturgeon::telemetry {

/// Monotone event counter. Thread-safe; add() is one wait-free relaxed
/// fetch_add. Every registry has one writer at a time (a node's step or
/// the engine's sequential phases), so one atomic suffices; it fills its
/// own cache line so that counters of nodes stepped on different worker
/// threads never share one.
class alignas(64) Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }

  /// Monotone between reset() calls.
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

  /// Zero the count (new run). Not atomic against concurrent add().
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};
static_assert(sizeof(Counter) == 64, "one counter per cache line");

/// Last-observed value. Thread-safe (single atomic double).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations x with
/// x <= bounds[i] (first match); an implicit overflow bucket catches the
/// rest. Thread-safe; observe() is a bucket search plus relaxed atomics.
class Histogram {
 public:
  /// `bounds` are strictly ascending, finite upper bucket edges.
  explicit Histogram(std::vector<double> bounds);

  void observe(double x) noexcept;

  struct Snapshot {
    std::vector<double> bounds;         ///< upper edges, one per bucket
    std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 (overflow last)
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
    /// Quantile estimate, q in [0, 1]; linear interpolation inside the
    /// containing bucket, clamped to the observed min/max.
    double quantile(double q) const;
  };
  Snapshot snapshot() const;

  void reset() noexcept;

  const std::vector<double>& bounds() const { return bounds_; }

  /// `n` ascending bounds: start, start*factor, start*factor^2, ...
  static std::vector<double> exponential_bounds(double start, double factor,
                                                int n);
  /// `n` ascending bounds: start, start+width, start+2*width, ...
  static std::vector<double> linear_bounds(double start, double width, int n);

  /// Default bounds for phase-duration histograms: 1 us .. ~2 s.
  static std::vector<double> duration_us_bounds() {
    return exponential_bounds(1.0, 2.0, 22);
  }

 private:
  std::size_t bucket_of(double x) const noexcept;

  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  ///< bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Name -> instrument map. Instruments are created on first access and
/// live as long as the registry; a name identifies exactly one instrument
/// kind (asking for "x" as a counter and later as a gauge throws).
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name) STURGEON_EXCLUDES(mu_);
  Gauge& gauge(std::string_view name) STURGEON_EXCLUDES(mu_);
  /// `bounds` are used only on first creation; later calls return the
  /// existing histogram regardless of the bounds argument.
  Histogram& histogram(std::string_view name, std::vector<double> bounds)
      STURGEON_EXCLUDES(mu_);
  Histogram& duration_histogram(std::string_view name) STURGEON_EXCLUDES(mu_) {
    return histogram(name, Histogram::duration_us_bounds());
  }

  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
  };
  /// Name-sorted snapshot of every instrument (export schema order).
  Snapshot snapshot() const STURGEON_EXCLUDES(mu_);

  /// Call f(name, value) for every counter, in name order, under the
  /// registry mutex; for roll-ups that read counters only. `f` must not
  /// call back into this registry.
  template <typename F>
  void for_each_counter(F&& f) const STURGEON_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    for (const auto& [name, c] : counters_) {
      f(std::string_view(name), c->value());
    }
  }

  /// Zero every instrument (new run); instruments stay registered.
  void reset() STURGEON_EXCLUDES(mu_);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  void check_kind(const std::string& name, Kind kind) STURGEON_REQUIRES(mu_);

  // mu_ guards the name->instrument maps, not the instruments: returned
  // Counter/Gauge/Histogram references are internally atomic and stay
  // valid for the registry's lifetime, so hot paths hold no lock.
  mutable Mutex mu_;
  std::map<std::string, Kind, std::less<>> kinds_ STURGEON_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      STURGEON_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      STURGEON_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      STURGEON_GUARDED_BY(mu_);
};

}  // namespace sturgeon::telemetry
