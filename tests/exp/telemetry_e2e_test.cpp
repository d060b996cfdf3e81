// End-to-end observability contract: a full controller run produces a
// span trace whose per-phase counts reconcile with the registry's
// histograms, a run ended by a throwing policy still flushes valid
// telemetry, and every policy answers the uniform describe()/
// last_decision() interface.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "baselines/heracles.h"
#include "baselines/parties.h"
#include "baselines/static_policy.h"
#include "cluster/node.h"
#include "core/controller.h"
#include "exp/model_registry.h"

namespace sturgeon::exp {
namespace {

using cluster::run_colocation;
using cluster::RunConfig;

core::TrainerConfig small_config() {
  core::TrainerConfig cfg;
  cfg.ls_samples = 250;
  cfg.ls_boundary_searches = 60;
  cfg.be_samples = 150;
  cfg.seed = 0xFEED;  // shared by all tests in this binary
  return cfg;
}

TEST(TelemetryE2E, SturgeonEpochSpansReconcileWithHistograms) {
  const auto& ls = find_ls("memcached");
  const auto& be = find_be("rt");
  auto predictor = predictor_for(ls, be, small_config());
  sim::SimulatedServer probe(ls, be, 7);
  core::SturgeonController sturgeon(predictor, ls.qos_target_ms,
                                    probe.power_budget_w());

  telemetry::TelemetryConfig tc;
  tc.tracing = true;
  RunConfig rc;
  rc.seed = 11;
  rc.telemetry = telemetry::TelemetryContext::make(probe.machine(), tc);
  const int duration_s = 30;
  const auto r = run_colocation(ls, be, sturgeon, LoadTrace::constant(0.4,
                                duration_s), rc);
  ASSERT_EQ(r.epochs, duration_s);
  ASSERT_TRUE(r.telemetry);

  const auto& spans = r.telemetry->tracer().finished();
  ASSERT_FALSE(spans.empty());

  // Index spans by id; count per phase.
  std::map<std::uint64_t, const telemetry::SpanRecord*> by_id;
  std::map<std::string, int> per_phase;
  for (const auto& s : spans) {
    by_id[s.id] = &s;
    ++per_phase[s.name];
  }
  ASSERT_EQ(by_id.size(), spans.size()) << "span ids must be unique";

  // One root epoch span per interval, each with observe + decide
  // children; the controller adds features (every decide) and search /
  // candidate_eval whenever it ran the predictor.
  EXPECT_EQ(per_phase["epoch"], duration_s);
  EXPECT_EQ(per_phase["observe"], duration_s);
  EXPECT_EQ(per_phase["decide"], duration_s);
  EXPECT_EQ(per_phase["features"], duration_s);
  EXPECT_GT(per_phase["search"], 0);
  EXPECT_EQ(per_phase["search"], per_phase["candidate_eval"]);
  EXPECT_EQ(per_phase["search"],
            static_cast<int>(sturgeon.searches_run()));

  // Nesting: epoch spans are roots; everything else has a live parent.
  for (const auto& s : spans) {
    if (s.name == "epoch") {
      EXPECT_EQ(s.parent, 0u);
      continue;
    }
    ASSERT_TRUE(by_id.count(s.parent)) << s.name << " has dangling parent";
    const auto* parent = by_id[s.parent];
    EXPECT_GE(s.start_us, parent->start_us);
    EXPECT_LE(s.start_us + s.dur_us, parent->start_us + parent->dur_us);
    if (s.name == "observe" || s.name == "decide" || s.name == "enforce") {
      EXPECT_EQ(parent->name, "epoch");
    }
    if (s.name == "features" || s.name == "search" || s.name == "balance") {
      EXPECT_EQ(parent->name, "decide");
    }
    if (s.name == "candidate_eval") {
      EXPECT_EQ(parent->name, "search");
    }
  }

  // Reconciliation contract: per-phase histogram counts == span counts.
  const auto snap = r.telemetry->metrics().snapshot();
  for (const auto& [name, hist] : snap.histograms) {
    constexpr std::string_view kPrefix = "phase.";
    constexpr std::string_view kSuffix = ".duration_us";
    if (name.rfind(kPrefix, 0) != 0 ||
        name.size() <= kPrefix.size() + kSuffix.size()) {
      continue;
    }
    const std::string phase = name.substr(
        kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
    EXPECT_EQ(hist.count, static_cast<std::uint64_t>(per_phase[phase]))
        << "histogram " << name << " disagrees with the span trace";
  }

  // Run-level instruments reflect the loop.
  auto& metrics = r.telemetry->metrics();
  EXPECT_EQ(metrics.counter("run.epochs").value(),
            static_cast<std::uint64_t>(duration_s));
  EXPECT_EQ(metrics.counter("controller.decisions").value(),
            static_cast<std::uint64_t>(duration_s));
  EXPECT_EQ(metrics.gauge("run.intervals").value(),
            static_cast<double>(duration_s));
  EXPECT_EQ(
      metrics.histogram("epoch.p95_ms", {1.0}).snapshot().count,
      static_cast<std::uint64_t>(duration_s));
}

/// Holds a fixed partition until its 5th decision, which throws: a
/// policy failure that ends the run mid-trace.
class ThrowingPolicy : public baselines::StaticPolicy {
 public:
  using baselines::StaticPolicy::StaticPolicy;
  using core::Policy::decide;
  Partition decide(const sim::ServerTelemetry& sample,
                   const Partition& current) override {
    if (++decisions_ == 5) throw std::runtime_error("policy failed");
    return baselines::StaticPolicy::decide(sample, current);
  }

 private:
  int decisions_ = 0;
};

TEST(TelemetryE2E, EarlyAbortStillFlushesValidTelemetry) {
  const auto& ls = find_ls("memcached");
  const auto& be = find_be("bs");
  const MachineSpec m = MachineSpec::xeon_e5_2630_v4();
  Partition p;
  p.ls = {8, m.max_freq_level(), 10};
  p.be = Allocation::complement(m, p.ls, 4);
  ThrowingPolicy policy(p, "Throwing");

  const std::string jsonl = ::testing::TempDir() + "abort_trace.jsonl";
  const std::string csv = ::testing::TempDir() + "abort_trace.csv";
  telemetry::TelemetryConfig tc;
  tc.tracing = true;
  tc.csv = true;
  tc.trace_jsonl_path = jsonl;
  tc.csv_path = csv;
  const auto ctx = telemetry::TelemetryContext::make(m, tc);
  RunConfig rc;
  rc.telemetry = ctx;
  EXPECT_THROW(
      run_colocation(ls, be, policy, LoadTrace::constant(0.9, 120), rc),
      std::runtime_error);

  // The partial run still produced complete, parseable sinks: one row
  // per observed interval, the 5th included.
  EXPECT_EQ(ctx->recorder().rows().size(), 5u);
  std::ifstream jf(jsonl);
  ASSERT_TRUE(jf.good());
  std::string line, last;
  int span_lines = 0;
  while (std::getline(jf, line)) {
    if (line.find("\"type\":\"span\"") != std::string::npos) ++span_lines;
    last = line;
  }
  EXPECT_GT(span_lines, 0);
  EXPECT_NE(last.find("\"type\":\"run_summary\""), std::string::npos);
  std::ifstream cf(csv);
  ASSERT_TRUE(cf.good());
  std::getline(cf, line);
  EXPECT_EQ(line.rfind("t_s,", 0), 0u);
  int csv_rows = 0;
  while (std::getline(cf, line)) ++csv_rows;
  EXPECT_EQ(csv_rows, 5);
  // Metrics were published despite the failure.
  EXPECT_EQ(ctx->metrics().gauge("run.intervals").value(), 5.0);
  std::remove(jsonl.c_str());
  std::remove(csv.c_str());
}

TEST(TelemetryE2E, AllPoliciesImplementDescribeAndLastDecision) {
  const auto& ls = find_ls("memcached");
  const auto& be = find_be("bs");
  const MachineSpec m = MachineSpec::xeon_e5_2630_v4();
  auto predictor = predictor_for(ls, be, small_config());
  sim::SimulatedServer probe(ls, be, 7);
  const double budget = probe.power_budget_w();

  core::SturgeonController sturgeon(predictor, ls.qos_target_ms, budget);
  baselines::PartiesOptions po;
  po.power_budget_w = budget;
  baselines::PartiesController parties(m, ls.qos_target_ms, po);
  baselines::HeraclesOptions ho;
  ho.power_budget_w = budget;
  baselines::HeraclesController heracles(m, ls.qos_target_ms, ho);
  Partition fixed;
  fixed.ls = {8, m.max_freq_level(), 10};
  fixed.be = Allocation::complement(m, fixed.ls, 4);
  baselines::StaticPolicy fixed_policy(fixed, "Fixed");

  core::Policy* policies[] = {&sturgeon, &parties, &heracles, &fixed_policy};
  for (core::Policy* policy : policies) {
    SCOPED_TRACE(policy->name());
    // describe() is a superset of name(): same identity, plus tuning.
    EXPECT_NE(policy->describe().find(policy->name()), std::string::npos);
    EXPECT_GE(policy->describe().size(), policy->name().size());

    // Before any decision, last_decision() is the default.
    policy->reset();
    EXPECT_EQ(policy->last_decision().epoch, 0u);
    EXPECT_EQ(policy->last_decision().action, core::Action::kNone);

    RunConfig rc;
    rc.seed = 3;
    const int duration_s = 10;
    const auto r = run_colocation(ls, be, *policy,
                                  LoadTrace::constant(0.3, duration_s), rc);
    EXPECT_EQ(r.epochs, duration_s);
    EXPECT_EQ(policy->last_decision().epoch,
              static_cast<std::uint64_t>(duration_s));
    EXPECT_NE(policy->last_decision().action, core::Action::kNone);

    policy->reset();
    EXPECT_EQ(policy->last_decision().epoch, 0u);
    EXPECT_EQ(policy->last_decision().action, core::Action::kNone);
  }
}

}  // namespace
}  // namespace sturgeon::exp
