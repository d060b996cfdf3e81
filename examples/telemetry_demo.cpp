// Telemetry demo: one short Sturgeon run with the full observability
// layer switched on -- span tracing, per-interval CSV rows, and the
// end-of-run metrics summary.
//
//   ./build/examples/telemetry_demo [trace.jsonl] [trace.csv]
//
// Writes the JSONL span trace (and optionally the per-second CSV), then
// prints the registry summary: counters, gauges, and per-phase duration
// histograms whose counts reconcile with the span trace. The JSONL file
// is what tools/trace_stats.py validates in ctest.
#include <iostream>
#include <memory>

#include "cluster/node.h"
#include "core/controller.h"
#include "core/predictor.h"
#include "core/trainer.h"
#include "exp/model_registry.h"
#include "telemetry/context.h"

int main(int argc, char** argv) {
  using namespace sturgeon;

  const std::string jsonl_path = argc > 1 ? argv[1] : "telemetry_trace.jsonl";
  const std::string csv_path = argc > 2 ? argv[2] : "";

  const LsProfile& ls = find_ls("memcached");
  const BeProfile& be = find_be("rt");

  // Reduced profiling campaign: the demo is about telemetry, not model
  // quality (same settings as the integration tests).
  core::TrainerConfig trainer;
  trainer.ls_samples = 250;
  trainer.ls_boundary_searches = 60;
  trainer.be_samples = 150;
  trainer.seed = 0xFEED;
  std::cout << "Training models..." << std::flush;
  auto predictor = exp::predictor_for(ls, be, trainer);
  std::cout << " done\n";

  sim::SimulatedServer probe(ls, be, /*seed=*/7);
  const double budget = probe.power_budget_w();
  core::SturgeonController sturgeon(predictor, ls.qos_target_ms, budget);

  // One live context for the whole experiment: tracing + CSV rows on,
  // file sinks written by run_colocation's flush on every exit path.
  telemetry::TelemetryConfig tc;
  tc.tracing = true;
  tc.csv = true;
  tc.trace_jsonl_path = jsonl_path;
  tc.csv_path = csv_path;
  cluster::RunConfig run_cfg;
  run_cfg.seed = 1;
  run_cfg.telemetry = telemetry::TelemetryContext::make(probe.machine(), tc);

  const auto trace = LoadTrace::ramp_up_down(0.2, 0.8, 60);
  const auto result = cluster::run_colocation(ls, be, sturgeon, trace, run_cfg);

  std::cout << "policy: " << sturgeon.describe() << "\n"
            << "last action: " << sturgeon.last_decision().action_string() << " (epoch "
            << sturgeon.last_decision().epoch << ")\n"
            << "intervals run: " << result.epochs << "\n"
            << "QoS guarantee rate: " << 100.0 * result.qos_guarantee_rate
            << " %\n"
            << "spans recorded: "
            << result.telemetry->tracer().finished_count() << " -> "
            << jsonl_path << "\n\n";
  result.telemetry->write_summary(std::cout);
  return 0;
}
