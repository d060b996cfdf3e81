// Quickstart: co-locate one latency-sensitive service with one
// best-effort application under a power budget, managed by Sturgeon.
//
//   1. pick workloads from the built-in catalogs,
//   2. train the offline performance/power models (seconds),
//   3. run the Sturgeon controller over a fluctuating load,
//   4. read the QoS / throughput / power summary.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>
#include <memory>

#include "cluster/node.h"
#include "core/controller.h"
#include "core/predictor.h"
#include "core/trainer.h"

int main() {
  using namespace sturgeon;

  // 1. Workloads: memcached-like LS service, raytrace-like BE app.
  const LsProfile& ls = find_ls("memcached");
  const BeProfile& be = find_be("rt");
  std::cout << "Co-locating " << ls.name << " (p95 target "
            << ls.qos_target_ms << " ms, peak " << ls.peak_qps
            << " QPS) with " << be.name << "\n";

  // 2. Offline training: profile both applications on a quiet machine
  //    and fit the QoS / power / IPC models (paper Section V).
  core::TrainerConfig trainer;
  trainer.ls_samples = 300;          // reduced for a fast quickstart
  trainer.ls_boundary_searches = 80;
  trainer.be_samples = 250;
  std::cout << "Training models..." << std::flush;
  auto predictor = std::make_shared<const core::Predictor>(
      trainer.server.machine, core::train_for_pair(ls, be, trainer));
  std::cout << " done\n";

  // 3. The node's power budget is its LS-alone-at-peak power; run the
  //    Sturgeon controller over a 20% -> 80% -> 20% load ramp.
  sim::SimulatedServer probe(ls, be, /*seed=*/7);
  const double budget = probe.power_budget_w();
  std::cout << "Power budget: " << budget << " W\n";

  core::SturgeonController sturgeon(predictor, ls.qos_target_ms, budget);
  std::cout << "Policy: " << sturgeon.describe() << "\n";
  const auto trace = LoadTrace::ramp_up_down(0.2, 0.8, 180);
  cluster::RunConfig run_cfg;
  run_cfg.seed = 1;
  const auto result = cluster::run_colocation(ls, be, sturgeon, trace, run_cfg);

  // 4. Summary.
  std::cout << "\nAfter " << trace.duration_s() << " s of fluctuating load:\n"
            << "  QoS guarantee rate:        "
            << 100.0 * result.qos_guarantee_rate << " %\n"
            << "  BE throughput (vs solo):   "
            << 100.0 * result.mean_be_throughput_norm << " %\n"
            << "  intervals over budget:     "
            << 100.0 * result.power_overshoot_fraction << " %\n"
            << "  worst power / budget:      " << result.max_power_ratio
            << "\n  predictor searches run:    " << sturgeon.searches_run()
            << "\n  balancer interventions:    "
            << sturgeon.balancer_actions() << "\n  last decision:             "
            << sturgeon.last_decision().action_string() << "\n\n";

  // Every run carries a metrics registry; the end-of-run summary shows
  // counters, gauges, and per-phase duration histograms.
  result.telemetry->write_summary(std::cout);
  return 0;
}
