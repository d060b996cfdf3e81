// Differential oracle for LsQueueSim::step.
//
// `ReferenceQueue` is the straightforward form of the M/G/k step: it
// sorts every interval's latencies and interpolates p95/p99 between
// neighbouring ranks, sets up the lognormal and draws each service
// demand from it per request, and re-seats the server heap with
// pop_heap + push_heap per dispatch. It writes that arithmetic out
// itself rather than calling the library's percentile and lognormal
// helpers, which the real step shares, so a change to those helpers
// shows here. The real simulator must give the same statistics, bit for
// bit, from the same seed over any schedule of steps.
//
// The reference also counts which selection path percentile_pair takes
// on each step's latencies (tail above a sampled pivot, its fallback to
// a full selection, or below the size floor), so each schedule can show
// that it reaches the path it was written for.
#include "sim/ls_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"

namespace sturgeon::sim {
namespace {

class ReferenceQueue {
 public:
  explicit ReferenceQueue(std::uint64_t seed) : rng_(seed) {}

  IntervalStats step(double dt_ms, int servers, double qps,
                     double mean_service_ms, double service_cv,
                     double qos_target_ms) {
    constexpr auto kMinHeap = std::greater<>{};
    const double end_ms = now_ms_ + dt_ms;
    IntervalStats stats;

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

    const auto try_dispatch = [&](double arrival_ms) -> bool {
      if (server_free_.empty()) return false;
      const double start = std::max(arrival_ms, server_free_.front());
      if (start >= end_ms) return false;
      const double service = draw_service(mean_service_ms, service_cv);
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

    while (!waiting_.empty()) {
      if (!try_dispatch(waiting_.front())) break;
      waiting_.pop();
    }

    const double rate_per_ms = qps / 1000.0;
    if (rate_per_ms > 0.0) {
      double t = now_ms_;
      for (;;) {
        t += rng_.exponential(rate_per_ms);
        if (t >= end_ms) break;
        ++stats.arrivals;
        if (!waiting_.empty() || !try_dispatch(t)) {
          if (waiting_.size() >= kMaxWaiting) {
            ++stats.qos_violations;
          } else {
            waiting_.push(t);
          }
        }
      }
    }

    now_ms_ = end_ms;

    if (!latencies.empty()) {
      count_selection_path(latencies);
      std::sort(latencies.begin(), latencies.end());
      stats.p95_ms = percentile_of_sorted(latencies, 95.0);
      stats.p99_ms = percentile_of_sorted(latencies, 99.0);
    } else if (!waiting_.empty()) {
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

  std::uint64_t backlog() const {
    std::uint64_t in_service = 0;
    for (double f : server_free_) {
      if (f > now_ms_) ++in_service;
    }
    return waiting_.size() + in_service;
  }

  std::size_t waiting() const { return waiting_.size(); }

  /// Steps whose p95/p99 percentile_pair reads in the tail above its
  /// pivot, steps where too few values lie above the pivot (the full
  /// selection fallback), and steps below the tail-select size floor.
  struct SelectionPaths {
    int tail = 0;
    int fallback = 0;
    int below_floor = 0;
  };
  const SelectionPaths& paths() const { return paths_; }

 private:
  void count_selection_path(const std::vector<double>& latencies) {
    const std::size_t n = latencies.size();
    if (n < kTailSelectMinSize) {
      ++paths_.below_floor;
      return;
    }
    const double pivot = tail_select_pivot(latencies);
    std::size_t above = 0;
    for (double x : latencies) above += x > pivot ? 1 : 0;
    const auto k95 = static_cast<std::size_t>(0.95 * static_cast<double>(n - 1));
    ++(above >= n - k95 ? paths_.tail : paths_.fallback);
  }

  static constexpr std::size_t kMaxWaiting = 200000;

  /// A lognormal demand with mean `mean` and CV `cv`; the mean itself,
  /// with nothing drawn, when cv <= 0.
  double draw_service(double mean, double cv) {
    if (cv <= 0.0) return mean;
    const double sigma2 = std::log(1.0 + cv * cv);
    const double mu = std::log(mean) - 0.5 * sigma2;
    return std::exp(mu + std::sqrt(sigma2) * rng_.normal());
  }

  /// The p-th percentile (0 < p < 100) of a non-empty sorted vector,
  /// interpolated between the two ranks around it.
  static double percentile_of_sorted(const std::vector<double>& sorted,
                                     double p) {
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= sorted.size()) return sorted.back();
    return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
  }

  Rng rng_;
  double now_ms_ = 0.0;
  std::vector<double> server_free_;
  std::queue<double> waiting_;
  SelectionPaths paths_;
};

struct Step {
  double dt_ms;
  int servers;
  double qps;
  double mean_service_ms;
  double service_cv;
  double qos_target_ms;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct RunSummary {
  std::size_t max_waiting = 0;  ///< the reference's largest waiting queue
  std::uint64_t max_completed = 0;  ///< most completions in one step
  ReferenceQueue::SelectionPaths paths;
};

/// Runs both simulators through `schedule` and compares every statistic
/// after every step.
RunSummary expect_same_run(std::uint64_t seed,
                           const std::vector<Step>& schedule) {
  LsQueueSim real(seed);
  ReferenceQueue ref(seed);
  RunSummary run;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Step& s = schedule[i];
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " step " << i << " servers "
                 << s.servers << " qps " << s.qps << " cv " << s.service_cv);
    const IntervalStats a = real.step(s.dt_ms, s.servers, s.qps,
                                      s.mean_service_ms, s.service_cv,
                                      s.qos_target_ms);
    const IntervalStats b = ref.step(s.dt_ms, s.servers, s.qps,
                                     s.mean_service_ms, s.service_cv,
                                     s.qos_target_ms);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.qos_violations, b.qos_violations);
    EXPECT_EQ(bits(a.p95_ms), bits(b.p95_ms)) << a.p95_ms << " vs " << b.p95_ms;
    EXPECT_EQ(bits(a.p99_ms), bits(b.p99_ms)) << a.p99_ms << " vs " << b.p99_ms;
    EXPECT_EQ(bits(a.utilization), bits(b.utilization));
    EXPECT_EQ(a.backlog, b.backlog);
    EXPECT_EQ(real.backlog(), ref.backlog());
    run.max_waiting = std::max(run.max_waiting, ref.waiting());
    run.max_completed = std::max(run.max_completed, b.completed);
  }
  run.paths = ref.paths();
  return run;
}

TEST(LsQueueOracle, ScheduledStepsMatchReference) {
  const std::vector<Step> schedule = {
      {1000.0, 4, 800.0, 1.0, 0.8, 10.0},     // light load
      {1000.0, 8, 3000.0, 2.0, 0.9, 10.0},    // grow, utilization 0.75
      {1000.0, 2, 3000.0, 2.0, 0.9, 10.0},    // shrink into overload
      {1000.0, 2, 3000.0, 2.0, 0.9, 10.0},    // backlog carries over
      {1000.0, 0, 500.0, 1.0, 0.5, 10.0},     // no servers: age only
      {1000.0, 6, 0.0, 1.0, 0.5, 10.0},       // zero rate drains backlog
      {500.0, 3, 1000.0, 1.5, 0.0, 5.0},      // cv = 0
      {10.0, 1, 100.0, 1.0, 0.5, 10.0},       // a handful of completions
      {1000.0, 0, 0.0, 1.0, 0.5, 10.0},       // nothing at all
      {1000.0, 0, 250000.0, 1.0, 0.5, 10.0},  // waiting queue overflows
      {1000.0, 0, 1000.0, 1.0, 0.5, 10.0},    // every arrival dropped
      {1000.0, 64, 0.0, 0.05, 0.5, 10.0},     // drain ~200k queued requests
      {1000.0, 16, 5000.0, 1.0, 0.0, 10.0},   // cv = 0 under load
      {250.0, 1, 900.0, 2.0, 1.5, 10.0},      // shrink to one server
      {1000.0, 12, 4000.0, 1.0, 0.6, 3.0},    // grow while backlogged
      {1000.0, 5, 100.0, 1.0, 0.7, 10.0},     // light again
  };
  const RunSummary run = expect_same_run(17, schedule);
  // The schedule reaches the waiting-queue cap (the drop path).
  EXPECT_EQ(run.max_waiting, 200000u);
}

TEST(LsQueueOracle, RandomSchedulesMatchReference) {
  const double cvs[] = {0.0, 0.3, 0.8, 1.5};
  for (std::uint64_t seed : {3u, 101u, 9173u}) {
    Rng pick(seed * 7919 + 1);
    std::vector<Step> schedule;
    for (int i = 0; i < 40; ++i) {
      Step s;
      s.dt_ms = pick.bernoulli(0.8) ? 1000.0 : pick.uniform(5.0, 600.0);
      s.servers = pick.uniform_int(0, 12);
      // Mostly near-capacity loads; sometimes idle or far overloaded.
      const double capacity = 1000.0 * std::max(1, s.servers) / 1.5;
      s.qps = pick.bernoulli(0.1) ? 0.0 : capacity * pick.uniform(0.1, 1.6);
      s.mean_service_ms = pick.uniform(0.5, 2.5);
      s.service_cv = cvs[pick.next_below(4)];
      s.qos_target_ms = pick.uniform(2.0, 20.0);
      schedule.push_back(s);
    }
    expect_same_run(seed, schedule);
  }
}

TEST(LsQueueOracle, ThousandsOfCompletionsPerStepMatchReference) {
  // The shape of a busy node: up to 20 servers and a few thousand
  // completions a step, so p95/p99 come from the tail select.
  for (std::uint64_t seed : {5u, 601u}) {
    Rng pick(seed * 104729 + 3);
    std::vector<Step> schedule;
    for (int i = 0; i < 24; ++i) {
      Step s;
      s.dt_ms = 1000.0;
      s.servers = pick.uniform_int(8, 20);
      s.mean_service_ms = pick.uniform(0.8, 2.0);
      const double capacity = 1000.0 * s.servers / s.mean_service_ms;
      s.qps = capacity * pick.uniform(0.3, 1.1);
      s.service_cv = pick.uniform(0.4, 1.4);
      s.qos_target_ms = pick.uniform(3.0, 15.0);
      schedule.push_back(s);
    }
    const RunSummary run = expect_same_run(seed, schedule);
    EXPECT_GE(run.max_completed, 5000u);
    EXPECT_GT(run.paths.tail, 20) << "seed " << seed;
  }
}

TEST(LsQueueOracle, DegenerateTailFallsBackAndMatchesReference) {
  // cv = 0 on ample servers: nearly every latency equals the mean demand,
  // so the pivot lands on that value, too few latencies lie above it, and
  // percentile_pair falls back to selecting over all of them.
  const std::vector<Step> schedule = {
      {1000.0, 20, 3000.0, 1.0, 0.0, 5.0},
      {1000.0, 20, 6000.0, 1.5, 0.0, 5.0},
      {1000.0, 16, 900.0, 2.0, 0.0, 5.0},
      {1000.0, 20, 3000.0, 1.0, 0.5, 5.0},  // lognormal demand: tail select
      {1000.0, 20, 4000.0, 1.0, 0.0, 5.0},
  };
  const RunSummary run = expect_same_run(23, schedule);
  EXPECT_GE(run.paths.fallback, 3);
  EXPECT_EQ(run.paths.tail, 1);
  EXPECT_EQ(run.paths.below_floor, 0);
}

TEST(LsQueueOracle, ShrinkAndRegrowWithTiedFreeTimesMatchReference) {
  // 20 -> 1 -> 20 servers, with constant demand so that free times tie:
  // regrown servers all free at the step start, and servers that drain a
  // backlog with equal demands free at equal times. The shrink drops
  // the earliest free times, whichever of the tied entries holds them.
  const std::vector<Step> schedule = {
      {1000.0, 20, 30000.0, 1.0, 0.0, 5.0},  // overload: backlog builds
      {1000.0, 1, 30000.0, 1.0, 0.0, 5.0},   // shrink under backlog
      {1000.0, 20, 0.0, 1.0, 0.0, 5.0},      // regrow: 19 tied at start
      {1000.0, 1, 500.0, 1.0, 0.0, 5.0},     // shrink among tied times
      {1000.0, 20, 25000.0, 1.0, 0.0, 5.0},  // regrow into overload
      {250.0, 1, 25000.0, 1.0, 0.0, 5.0},
      {1000.0, 20, 15000.0, 1.0, 0.0, 5.0},  // drain with tied demands
      {1000.0, 1, 800.0, 1.0, 0.7, 5.0},     // lognormal from here on
      {1000.0, 20, 18000.0, 1.0, 0.7, 5.0},
      {1000.0, 1, 18000.0, 1.0, 0.7, 5.0},
      {1000.0, 20, 6000.0, 1.0, 0.7, 5.0},
  };
  const RunSummary run = expect_same_run(29, schedule);
  EXPECT_GT(run.max_waiting, 10000u);
}

TEST(LsQueueOracle, ZeroServersMatchReference) {
  const std::vector<Step> schedule = {
      {1000.0, 0, 700.0, 1.0, 0.5, 10.0},   // from the start: age only
      {1000.0, 0, 0.0, 1.0, 0.5, 10.0},     // queued, no arrivals
      {1000.0, 4, 700.0, 1.0, 0.5, 10.0},   // servers drain the queue
      {1000.0, 0, 2000.0, 1.0, 0.5, 10.0},  // in service at the removal
      {500.0, 0, 2000.0, 1.0, 0.0, 10.0},
      {1000.0, 3, 2000.0, 1.0, 0.0, 10.0},
      {1000.0, 0, 0.0, 1.0, 0.0, 10.0},
  };
  const RunSummary run = expect_same_run(31, schedule);
  EXPECT_GT(run.max_waiting, 1000u);
}

}  // namespace
}  // namespace sturgeon::sim
