#include "sim/ls_queue.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "util/stats.h"

namespace sturgeon::sim {

namespace {
constexpr auto kMinHeap = std::greater<>{};
}  // namespace

LsQueueSim::LsQueueSim(std::uint64_t seed) : rng_(seed) {}

void LsQueueSim::reset() {
  server_free_.clear();
  waiting_ = {};
  now_ms_ = 0.0;
}

std::uint64_t LsQueueSim::backlog() const {
  std::uint64_t in_service = 0;
  for (double f : server_free_) {
    if (f > now_ms_) ++in_service;
  }
  return waiting_.size() + in_service;
}

IntervalStats LsQueueSim::step(double dt_ms, int servers, double qps,
                               double mean_service_ms, double service_cv,
                               double qos_target_ms) {
  if (dt_ms <= 0.0 || qps < 0.0 || mean_service_ms <= 0.0 ||
      qos_target_ms <= 0.0) {
    throw std::invalid_argument("LsQueueSim::step: bad arguments");
  }
  const double end_ms = now_ms_ + dt_ms;
  IntervalStats stats;

  // `server_free_` holds per-server free times. Resize to the current core
  // count: grown servers become free immediately; on shrink the least-
  // backlogged servers are removed (their in-service request migrates, as
  // cpuset rebalancing would do on real hardware).
  while (static_cast<int>(server_free_.size()) > servers &&
         !server_free_.empty()) {
    std::pop_heap(server_free_.begin(), server_free_.end(), kMinHeap);
    server_free_.pop_back();
  }
  while (static_cast<int>(server_free_.size()) < servers) {
    server_free_.push_back(now_ms_);
    std::push_heap(server_free_.begin(), server_free_.end(), kMinHeap);
  }

  std::vector<double> latencies;
  double busy_time_ms = 0.0;

  // The demand distribution is fixed for the step: set it up once. The
  // draws are the ones Rng::lognormal_mean_cv makes (none when cv <= 0).
  const bool draw_service = service_cv > 0.0;
  const LognormalParams service_dist =
      draw_service ? lognormal_params(mean_service_ms, service_cv)
                   : LognormalParams{};

  const auto try_dispatch = [&](double arrival_ms) -> bool {
    if (server_free_.empty()) return false;
    const double start = std::max(arrival_ms, server_free_.front());
    if (start >= end_ms) return false;  // next config serves it instead
    const double service =
        draw_service ? rng_.lognormal(service_dist) : mean_service_ms;
    std::pop_heap(server_free_.begin(), server_free_.end(), kMinHeap);
    server_free_.back() = start + service;
    std::push_heap(server_free_.begin(), server_free_.end(), kMinHeap);
    const double latency = start + service - arrival_ms;
    latencies.push_back(latency);
    ++stats.completed;
    if (latency > qos_target_ms) ++stats.qos_violations;
    busy_time_ms += service;
    return true;
  };

  // First serve the backlog carried over from previous intervals.
  while (!waiting_.empty()) {
    if (!try_dispatch(waiting_.front())) break;
    waiting_.pop();
  }

  // Poisson arrivals over this interval (rate per ms).
  const double rate_per_ms = qps / 1000.0;
  if (rate_per_ms > 0.0) {
    double t = now_ms_;
    for (;;) {
      t += rng_.exponential(rate_per_ms);
      if (t >= end_ms) break;
      ++stats.arrivals;
      if (!waiting_.empty() || !try_dispatch(t)) {
        if (waiting_.size() >= kMaxWaiting) {
          ++stats.qos_violations;  // dropped: counts against QoS
        } else {
          waiting_.push(t);
        }
      }
    }
  }

  now_ms_ = end_ms;

  if (!latencies.empty()) {
    std::tie(stats.p95_ms, stats.p99_ms) =
        percentile_pair(latencies, 95.0, 99.0);
  } else if (!waiting_.empty()) {
    // Nothing dispatched but work is queued: report the age of the oldest
    // waiting request so controllers see the building latency.
    const double age = now_ms_ - waiting_.front();
    stats.p95_ms = stats.p99_ms = age;
  }

  stats.utilization =
      servers > 0
          ? std::min(1.0,
                     busy_time_ms / (static_cast<double>(servers) * dt_ms))
          : 0.0;
  stats.backlog = backlog();
  return stats;
}

}  // namespace sturgeon::sim
