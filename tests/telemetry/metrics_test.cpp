#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sturgeon::telemetry {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentIncrementsAreLossless) {
  // Exercised under TSan by the sanitizer CI legs: many threads hammer
  // one counter's single atomic; value() reads while writers run and
  // the final sum must be exact.
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&c] {
      for (int j = 0; j < kPerThread; ++j) c.inc();
    });
  }
  while (c.value() < 1000) {
  }  // concurrent snapshot-on-read
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Gauge, SetAndReset) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.25);
  EXPECT_EQ(g.value(), 3.25);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketBoundariesAreUpperEdgeInclusive) {
  // Bucket i holds x <= bounds[i]: an observation exactly on an edge
  // lands in that edge's bucket, one past it in the next.
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 0 (edge inclusive)
  h.observe(1.001); // bucket 1
  h.observe(2.0);   // bucket 1
  h.observe(4.0);   // bucket 2
  h.observe(4.001); // overflow
  h.observe(100.0); // overflow
  const auto s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 2u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 2u);
  EXPECT_EQ(s.count, 7u);
  EXPECT_EQ(s.min, 0.5);
  EXPECT_EQ(s.max, 100.0);
}

TEST(Histogram, QuantilesInterpolateAndClampToObservedRange) {
  Histogram h(Histogram::linear_bounds(10.0, 10.0, 10));
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
  // Every bucket holds 10 evenly spread observations, so quantiles track
  // the underlying uniform distribution to within one bucket width.
  EXPECT_NEAR(s.quantile(0.5), 50.0, 10.0);
  EXPECT_NEAR(s.quantile(0.95), 95.0, 10.0);
  // q=0/1 clamp to the observed extremes, not the bucket edges.
  EXPECT_EQ(s.quantile(0.0), 1.0);
  EXPECT_EQ(s.quantile(1.0), 100.0);
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  Histogram h({1.0, 2.0});
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.quantile(0.5), 0.0);
}

TEST(Histogram, RejectsNonAscendingBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({}), std::invalid_argument);
}

TEST(Histogram, BoundsFactories) {
  EXPECT_EQ(Histogram::exponential_bounds(1.0, 2.0, 4),
            (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  EXPECT_EQ(Histogram::linear_bounds(0.0, 10.0, 3),
            (std::vector<double>{0.0, 10.0, 20.0}));
}

TEST(MetricsRegistry, SameNameReturnsSameInstrument) {
  MetricsRegistry r;
  Counter& a = r.counter("x.events");
  Counter& b = r.counter("x.events");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  Histogram& h1 = r.histogram("x.lat", {1.0, 2.0});
  Histogram& h2 = r.histogram("x.lat", {9.0});  // bounds ignored on reuse
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(MetricsRegistry, NameKindConflictThrows) {
  MetricsRegistry r;
  r.counter("x");
  EXPECT_THROW(r.gauge("x"), std::invalid_argument);
  EXPECT_THROW(r.histogram("x", {1.0}), std::invalid_argument);
  r.gauge("g");
  EXPECT_THROW(r.counter("g"), std::invalid_argument);
}

TEST(MetricsRegistry, SnapshotIsNameSortedAndComplete) {
  MetricsRegistry r;
  r.counter("b.count").add(2);
  r.counter("a.count").add(1);
  r.gauge("z.gauge").set(7.0);
  r.duration_histogram("m.hist").observe(3.0);
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.count");
  EXPECT_EQ(snap.counters[0].second, 1u);
  EXPECT_EQ(snap.counters[1].first, "b.count");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 7.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);
}

TEST(MetricsRegistry, ResetZeroesButKeepsInstruments) {
  MetricsRegistry r;
  Counter& c = r.counter("c");
  c.add(5);
  r.gauge("g").set(1.0);
  r.duration_histogram("h").observe(2.0);
  r.reset();
  EXPECT_EQ(c.value(), 0u);  // same instrument, zeroed
  EXPECT_EQ(r.gauge("g").value(), 0.0);
  EXPECT_EQ(r.duration_histogram("h").snapshot().count, 0u);
}

}  // namespace
}  // namespace sturgeon::telemetry
