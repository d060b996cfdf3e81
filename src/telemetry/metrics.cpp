#include "telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sturgeon::telemetry {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: empty bucket bounds");
  }
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (!std::isfinite(bounds_[i]) ||
        (i > 0 && bounds_[i] <= bounds_[i - 1])) {
      throw std::invalid_argument(
          "Histogram: bounds must be finite and strictly ascending");
    }
  }
}

std::size_t Histogram::bucket_of(double x) const noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  return static_cast<std::size_t>(it - bounds_.begin());
}

namespace {

// Relaxed CAS loops for the double accumulators; contention is rare
// (histograms are written by the control loop, occasionally by workers).
void atomic_add(std::atomic<double>& a, double x) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double x) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (x < cur &&
         !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double x) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (x > cur &&
         !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::observe(double x) noexcept {
  counts_[bucket_of(x)].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t before = count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, x);
  if (before == 0) {
    // First observation seeds min/max; racing observers converge via the
    // CAS loops below.
    double expected = 0.0;
    min_.compare_exchange_strong(expected, x, std::memory_order_relaxed);
    expected = 0.0;
    max_.compare_exchange_strong(expected, x, std::memory_order_relaxed);
  }
  atomic_min(min_, x);
  atomic_max(max_, x);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  s.counts.reserve(counts_.size());
  for (const auto& c : counts_) {
    s.counts.push_back(c.load(std::memory_order_relaxed));
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  return s;
}

void Histogram::reset() noexcept {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

double Histogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t next = cum + counts[i];
    if (static_cast<double>(next) >= target && counts[i] > 0) {
      double lo = i == 0 ? min : bounds[i - 1];
      double hi = i == bounds.size() ? max : bounds[i];
      lo = std::max(lo, min);
      hi = std::min(hi, max);
      if (hi < lo) hi = lo;
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(counts[i]);
      return lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
    }
    cum = next;
  }
  return max;
}

std::vector<double> Histogram::exponential_bounds(double start, double factor,
                                                  int n) {
  if (start <= 0.0 || factor <= 1.0 || n < 1) {
    throw std::invalid_argument("Histogram::exponential_bounds");
  }
  std::vector<double> b;
  b.reserve(static_cast<std::size_t>(n));
  double v = start;
  for (int i = 0; i < n; ++i, v *= factor) b.push_back(v);
  return b;
}

std::vector<double> Histogram::linear_bounds(double start, double width,
                                             int n) {
  if (width <= 0.0 || n < 1) {
    throw std::invalid_argument("Histogram::linear_bounds");
  }
  std::vector<double> b;
  b.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) b.push_back(start + width * i);
  return b;
}

void MetricsRegistry::check_kind(const std::string& name, Kind kind) {
  const auto [it, inserted] = kinds_.try_emplace(name, kind);
  if (!inserted && it->second != kind) {
    throw std::invalid_argument("MetricsRegistry: instrument '" + name +
                                "' already registered with another kind");
  }
}

Counter& MetricsRegistry::counter(std::string_view name) {
  MutexLock lock(mu_);
  std::string key(name);
  check_kind(key, Kind::kCounter);
  auto& slot = counters_[key];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  MutexLock lock(mu_);
  std::string key(name);
  check_kind(key, Kind::kGauge);
  auto& slot = gauges_[key];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  MutexLock lock(mu_);
  std::string key(name);
  check_kind(key, Kind::kHistogram);
  auto& slot = histograms_[key];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  MutexLock lock(mu_);
  Snapshot s;
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name,
                                                                  c->value());
  for (const auto& [name, g] : gauges_) s.gauges.emplace_back(name,
                                                              g->value());
  for (const auto& [name, h] : histograms_) {
    s.histograms.emplace_back(name, h->snapshot());
  }
  return s;
}

void MetricsRegistry::reset() {
  MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace sturgeon::telemetry
