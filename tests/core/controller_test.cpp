#include "core/controller.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "fake_models.h"
#include "telemetry/context.h"

namespace sturgeon::core {
namespace {

const MachineSpec m = MachineSpec::xeon_e5_2630_v4();

sim::ServerTelemetry sample(double p95, double qps_real) {
  sim::ServerTelemetry t;
  t.ls.p95_ms = p95;
  t.qps_real = qps_real;
  t.qos_target_ms = 10.0;
  return t;
}

SturgeonController make_controller(bool balancer = true) {
  SturgeonOptions opts;
  opts.enable_balancer = balancer;
  return SturgeonController(testing::fake_predictor(m, 1.0, 3), 10.0, 200.0,
                            opts);
}

TEST(Controller, InBandKeepsCurrentConfiguration) {
  auto ctl = make_controller();
  Partition cur;
  cur.ls = {8, 6, 8};
  cur.be = {12, 8, 12};
  // slack = (10 - 8.5) / 10 = 0.15: inside [0.1, 0.2].
  EXPECT_EQ(ctl.decide(sample(8.5, 8000.0), cur), cur);
  EXPECT_EQ(ctl.searches_run(), 0u);
}

TEST(Controller, HighSlackTriggersSearchAndFreesResources) {
  auto ctl = make_controller();
  const Partition cur = Partition::all_to_ls(m);
  // slack = 0.8 > beta: the controller searches and gives the BE a slice.
  const auto next = ctl.decide(sample(2.0, 8000.0), cur);
  EXPECT_EQ(ctl.searches_run(), 1u);
  EXPECT_GT(next.be.cores, 0);
  EXPECT_LT(next.ls.cores, m.num_cores);
  // The installed config satisfies the fake QoS rule.
  EXPECT_GE(next.ls.cores * m.freq_at(next.ls.freq_level), 8.0 - 1e-9);
}

TEST(Controller, LowSlackWithStaleSearchEngagesBalancer) {
  auto ctl = make_controller();
  // Install the search result for this load first.
  const auto installed =
      ctl.decide(sample(2.0, 8000.0), Partition::all_to_ls(m));
  ASSERT_GT(installed.be.cores, 0);
  // Now report a violation at the same load: the search proposes the same
  // configuration, so only the balancer can respond.
  const auto after = ctl.decide(sample(12.0, 8000.0), installed);
  EXPECT_NE(after, installed);
  EXPECT_GE(ctl.balancer_actions(), 1u);
  // The balancer moves resources toward the LS service.
  const bool ls_ward = after.ls.cores > installed.ls.cores ||
                       after.ls.llc_ways > installed.ls.llc_ways ||
                       after.be.freq_level < installed.be.freq_level;
  EXPECT_TRUE(ls_ward);
}

TEST(Controller, NoBalancerVariantStaysStuck) {
  auto ctl = make_controller(/*balancer=*/false);
  EXPECT_EQ(ctl.name(), "Sturgeon-NoB");
  const auto installed =
      ctl.decide(sample(2.0, 8000.0), Partition::all_to_ls(m));
  // Same load, violating latency: NoB re-searches, gets the same config,
  // and cannot react -- the paper's Fig 9 failure mode.
  const auto after = ctl.decide(sample(12.0, 8000.0), installed);
  EXPECT_EQ(after, installed);
  EXPECT_EQ(ctl.balancer_actions(), 0u);
}

TEST(Controller, ReservesPersistAcrossSearches) {
  auto ctl = make_controller();
  const auto installed =
      ctl.decide(sample(2.0, 8000.0), Partition::all_to_ls(m));
  // Force a balancer harvest.
  const auto harvested = ctl.decide(sample(12.0, 8000.0), installed);
  ASSERT_NE(harvested, installed);
  const auto reserves = ctl.reserves();
  EXPECT_GT(reserves.cores + reserves.ways + reserves.freq, 0);
  // A later search (load change, healthy latency) must keep the reserve
  // shift relative to the raw search result.
  const auto next = ctl.decide(sample(2.0, 4000.0), harvested);
  const bool shifted = next.ls.cores > installed.ls.cores ||
                       next.ls.llc_ways > installed.ls.llc_ways ||
                       next.be.freq_level < installed.be.freq_level;
  EXPECT_TRUE(shifted);
}

TEST(Controller, ReservesDecayDuringCalm) {
  SturgeonOptions opts;
  opts.reserve_decay_interval_s = 3;
  SturgeonController ctl(testing::fake_predictor(m, 1.0, 3), 10.0, 200.0,
                         opts);
  auto cur = ctl.decide(sample(2.0, 8000.0), Partition::all_to_ls(m));
  cur = ctl.decide(sample(12.0, 8000.0), cur);  // build a reserve
  const auto before = ctl.reserves();
  ASSERT_GT(before.cores + before.ways + before.freq, 0);
  // Several calm in-band intervals: reserves halve.
  for (int i = 0; i < 8; ++i) {
    cur = ctl.decide(sample(8.5, 8000.0), cur);
  }
  const auto after = ctl.reserves();
  EXPECT_LT(after.cores + after.ways + after.freq,
            before.cores + before.ways + before.freq);
}

TEST(Controller, ResetClearsState) {
  auto ctl = make_controller();
  auto cur = ctl.decide(sample(2.0, 8000.0), Partition::all_to_ls(m));
  ctl.decide(sample(12.0, 8000.0), cur);
  EXPECT_GT(ctl.searches_run(), 0u);
  ctl.reset();
  EXPECT_EQ(ctl.searches_run(), 0u);
  EXPECT_EQ(ctl.balancer_actions(), 0u);
  EXPECT_EQ(ctl.reserves().cores, 0);
}

// controller.model_calls sums the model calls of this controller's own
// searches; a controller that has not searched registers no counter.
TEST(Controller, ModelCallsCounterSumsOwnSearches) {
  const auto pred = testing::fake_predictor(m, 1.0, 3);
  SturgeonController ctl(pred, 10.0, 200.0);
  const auto ctx = telemetry::TelemetryContext::make(m);
  ctl.attach_telemetry(ctx);
  ctl.reset();
  const auto registered = [&] {
    for (const auto& [name, value] : ctx->metrics().snapshot().counters) {
      if (name == "controller.model_calls") return true;
    }
    return false;
  };
  Partition cur;
  cur.ls = {8, 6, 8};
  cur.be = {12, 8, 12};
  ctl.decide(sample(8.5, 8000.0), cur);  // in band: no search
  EXPECT_FALSE(registered());

  const ConfigSearch reference(*pred, 200.0);
  const std::uint64_t want = reference.search(8000.0).model_invocations +
                             reference.search(15000.0).model_invocations;
  cur = ctl.decide(sample(2.0, 8000.0), Partition::all_to_ls(m));
  cur = ctl.decide(sample(2.0, 15000.0), cur);
  ASSERT_EQ(ctl.searches_run(), 2u);
  EXPECT_TRUE(registered());
  EXPECT_EQ(ctx->metrics().counter("controller.model_calls").value(), want);
  ctl.reset();
  EXPECT_EQ(ctx->metrics().counter("controller.model_calls").value(), 0u);
}

// controller.power_fallbacks counts the searches that kept all-to-LS
// because the cap turned every candidate down; an uncapped controller
// registers no counter.
TEST(Controller, PowerFallbacksCounterCountsCappedFallbacks) {
  const auto pred = testing::fake_predictor(m, 1.0, 3);
  SturgeonController ctl(pred, 10.0, 200.0);
  const auto ctx = telemetry::TelemetryContext::make(m);
  ctl.attach_telemetry(ctx);
  const auto registered = [&] {
    for (const auto& [name, value] : ctx->metrics().snapshot().counters) {
      if (name == "controller.power_fallbacks") return true;
    }
    return false;
  };
  Partition cur = ctl.decide(sample(2.0, 6000.0), Partition::all_to_ls(m));
  ASSERT_GT(cur.be.cores, 0);
  EXPECT_FALSE(registered());

  ctl.set_power_cap(25.0);
  cur = ctl.decide(sample(2.0, 6000.0), cur);
  EXPECT_EQ(cur, Partition::all_to_ls(m));
  cur = ctl.decide(sample(2.0, 7000.0), cur);
  ASSERT_EQ(ctl.searches_run(), 3u);
  EXPECT_EQ(ctx->metrics().counter("controller.power_fallbacks").value(), 2u);
  ctl.reset();
  EXPECT_EQ(ctx->metrics().counter("controller.power_fallbacks").value(), 0u);
}

// Handles bound on first use are dropped on every attach: after a switch
// the controller writes only to the new context (ASan would flag a write
// through a handle into the destroyed first context).
TEST(Controller, InstrumentsFollowTelemetryAttach) {
  SturgeonController ctl(testing::fake_predictor(m, 1.0, 3), 10.0, 200.0);
  auto first = telemetry::TelemetryContext::make(m);
  ctl.attach_telemetry(first);
  ctl.set_power_cap(150.0);
  ctl.decide(sample(2.0, 8000.0), Partition::all_to_ls(m));
  EXPECT_EQ(first->metrics().gauge("controller.power_cap_w").value(), 150.0);

  const auto second = telemetry::TelemetryContext::make(m);
  ctl.attach_telemetry(second);
  first.reset();
  ctl.set_power_cap(140.0);
  auto cur = ctl.decide(sample(2.0, 9000.0), Partition::all_to_ls(m));
  cur = ctl.decide(sample(12.0, 9000.0), cur);  // balancer builds reserves
  auto& metrics = second->metrics();
  EXPECT_EQ(metrics.gauge("controller.power_cap_w").value(), 140.0);
  EXPECT_GT(metrics.counter("controller.model_calls").value(), 0u);
  const auto& r = ctl.reserves();
  EXPECT_EQ(metrics.gauge("controller.reserves.cores").value(), r.cores);
  EXPECT_EQ(metrics.gauge("controller.reserves.ways").value(), r.ways);
  EXPECT_EQ(metrics.gauge("controller.reserves.freq").value(), r.freq);
  EXPECT_GT(r.cores + r.ways + r.freq, 0);
}

// Policy::decide(Allocation) is the overload a decorator overrides to
// forward; at K = 2 it must be the pair decide() bit for bit.
TEST(Policy, AllocationOverloadAdaptsExactlyAtKTwo) {
  auto pair = make_controller();
  auto sliced = make_controller();
  Partition p = Partition::all_to_ls(m);
  Partition q = p;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  // Search on high slack, hold in band, balancer on violation, and a
  // load shift that forces fresh searches.
  const double trace[][2] = {{2.0, 8000.0},  {8.5, 8000.0}, {12.0, 8000.0},
                             {12.0, 8000.0}, {3.0, 6000.0}, {8.5, 6000.0},
                             {11.0, 9000.0}, {2.5, 9000.0}};
  for (const auto& [p95, qps] : trace) {
    p = pair.decide(sample(p95, qps), p);
    q = sliced.decide(sample(p95, qps), Allocation::of(q)).to_partition();
    ASSERT_EQ(p, q);
    const PolicyDecision& a = pair.last_decision();
    const PolicyDecision& b = sliced.last_decision();
    EXPECT_EQ(a.epoch, b.epoch);
    EXPECT_EQ(a.partition, p);
    EXPECT_EQ(b.partition, q);
    EXPECT_EQ(a.action, b.action);
    EXPECT_EQ(a.detail, b.detail);
    EXPECT_EQ(bits(a.slack), bits(b.slack));
    EXPECT_EQ(bits(a.predicted_throughput), bits(b.predicted_throughput));
    EXPECT_EQ(bits(a.predicted_power_w), bits(b.predicted_power_w));
  }
  EXPECT_GE(pair.searches_run(), 2u);
  EXPECT_GE(pair.balancer_actions(), 1u);
  EXPECT_EQ(pair.searches_run(), sliced.searches_run());
  EXPECT_EQ(pair.balancer_actions(), sliced.balancer_actions());

  const Allocation three(std::vector<AppSlice>{q.ls, q.be, AppSlice{}});
  EXPECT_THROW(sliced.decide(sample(8.5, 8000.0), three),
               std::invalid_argument);
}

TEST(Controller, DescribePrintsDoublesAsAStreamDoes) {
  // describe() formats without a stream; every string must stay the one
  // an ostringstream printed, byte for byte (cluster results and
  // benchmark digests carry it). The spread crosses %g's switch to
  // exponent form at both ends, rounding at the 6th digit, a denormal
  // and the largest double.
  const auto predictor = testing::fake_predictor(m);
  const double spread[] = {5e-324,    1e-300,   1e-5,      1e-4,
                           1.2345678e-4, 0.1,   0.2,       1.0 / 3.0,
                           1.0,       10.0,     99.99995,  99.999949,
                           123456.0,  999999.5, 1234567.0, 2.5e15,
                           1e21,      1.7976931348623157e308};
  for (const double v : spread) {
    for (const bool balancer : {true, false}) {
      SturgeonOptions opts;
      opts.alpha = v / 2;
      opts.beta = v;
      opts.enable_balancer = balancer;
      SturgeonController ctl(predictor, v, 100.0, opts);
      ctl.set_power_cap(v * 0.75);
      std::ostringstream want;
      want << ctl.name() << "(alpha=" << opts.alpha << ", beta=" << opts.beta
           << ", qos_target_ms=" << v << ", power_budget_w=" << v * 0.75
           << ", balancer=" << (balancer ? "on" : "off") << ")";
      EXPECT_EQ(ctl.describe(), want.str()) << "value " << v;
    }
  }
}

TEST(Controller, RejectsBadArguments) {
  EXPECT_THROW(SturgeonController(nullptr, 10.0, 100.0),
               std::invalid_argument);
  EXPECT_THROW(
      SturgeonController(testing::fake_predictor(m), 0.0, 100.0),
      std::invalid_argument);
  SturgeonOptions bad;
  bad.beta = bad.alpha;
  EXPECT_THROW(
      SturgeonController(testing::fake_predictor(m), 10.0, 100.0, bad),
      std::invalid_argument);
}

}  // namespace
}  // namespace sturgeon::core
