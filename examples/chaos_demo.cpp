// Chaos quickstart: the same fleet run twice -- once fault-free, once
// under the standard chaos schedule (sensor dropout fleet-wide, an
// actuator burst, one node crash that recovers) with every defense
// armed: sensor sanitization, watchdog safe-mode fallback, actuator
// retry, and heartbeat-driven dead-node power reclamation.
//
// The side-by-side table is the point: QoS should stay within a few
// points of the clean run, the budget must never be oversubscribed, and
// the recovery columns show what the fault machinery absorbed.
//
// Usage: chaos_demo [nodes=4] [duration_s=120] [cluster_jsonl_path]
// The optional third argument writes the *faulted* run's roll-up, which
// tools/trace_stats.py --cluster validates (including the fault and
// recovery fields).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/export.h"
#include "fleet/fleet.h"
#include "util/rng.h"
#include "util/table.h"

using namespace sturgeon;

namespace {

std::vector<cluster::NodeSpec> build_fleet(int nodes, int duration) {
  const auto& ls = find_ls("memcached");
  const auto& bes = be_catalog();
  core::TrainerConfig trainer;
  trainer.ls_samples = 250;
  trainer.ls_boundary_searches = 60;
  trainer.be_samples = 150;
  const auto load = LoadTrace::diurnal(0.15, 0.85, duration);
  std::vector<cluster::NodeSpec> specs;
  specs.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    cluster::NodeSpec spec;
    spec.ls = ls;
    spec.be = bes[static_cast<std::size_t>(n) % bes.size()];
    spec.trace =
        load.with_noise(0.07, derive_seed(42, static_cast<std::uint64_t>(n)));
    spec.trainer = trainer;
    specs.push_back(std::move(spec));
  }
  return specs;
}

cluster::ClusterConfig base_config() {
  cluster::ClusterConfig config;
  config.seed = 7;
  config.coordinator = cluster::CoordinatorKind::kSlackHarvest;
  // All defenses armed in both runs, so the comparison isolates the
  // faults themselves, not the defense overhead.
  config.resilience.sanitize_sensors = true;
  config.resilience.watchdog.enabled = true;
  config.resilience.heartbeat.dead_after_epochs = 3;
  return config;
}

/// The standard chaos schedule, scaled to the run length.
fault::FaultConfig standard_chaos(int epochs, int victim) {
  fault::FaultConfig f;
  f.enabled = true;
  f.sensor.dropout_p = 0.05;
  f.actuator.burst_start_epoch = epochs / 4;
  f.actuator.burst_epochs = 3;
  f.actuator.burst_fail_p = 0.9;
  f.node.victim = victim;
  f.node.crash_epoch = epochs / 2;
  f.node.crash_epochs = 6;
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  const int nodes = argc > 1 ? std::stoi(argv[1]) : 4;
  const int duration = argc > 2 ? std::stoi(argv[2]) : 120;
  const std::string jsonl_path = argc > 3 ? argv[3] : "";
  if (nodes < 2 || duration < 30) {
    std::cerr << "usage: chaos_demo [nodes>=2] [duration_s>=30] [jsonl]\n";
    return 1;
  }

  std::cout << "Chaos demo: " << nodes << " nodes, " << duration
            << " epochs; training models...\n";
  // Quiescence and churn stay off: every node steps every epoch.
  fleet::FleetConfig clean_config;
  clean_config.cluster = base_config();
  fleet::FleetSim clean_sim(build_fleet(nodes, duration), clean_config);
  const cluster::ClusterResult clean = clean_sim.run().cluster;

  fleet::FleetConfig faulted_config;
  faulted_config.cluster = base_config();
  faulted_config.cluster.faults = standard_chaos(duration, /*victim=*/1);
  fleet::FleetSim chaos_sim(build_fleet(nodes, duration), faulted_config);
  const cluster::ClusterResult chaos = chaos_sim.run().cluster;

  TablePrinter table({"run", "fleet QoS", "agg BE thr", "max cap-sum ratio",
                      "dead epochs", "recoveries", "MTTR p95"});
  for (const auto* r : {&clean, &chaos}) {
    table.add_row({r == &clean ? "fault-free" : "chaos",
                   TablePrinter::fmt_pct(r->fleet_qos_guarantee_rate, 2),
                   TablePrinter::fmt(r->aggregate_be_throughput, 3),
                   TablePrinter::fmt(r->max_cap_sum_ratio, 3),
                   std::to_string(r->dead_node_epochs),
                   std::to_string(r->recovery_mttr_epochs.size()),
                   TablePrinter::fmt(r->mttr_p95_epochs, 1)});
  }
  table.print(std::cout);

  std::uint64_t injected = 0, rejected = 0, retries = 0;
  int safe_mode = 0;
  for (const auto& nr : chaos.node_results) {
    injected += nr.faults_injected;
    rejected += nr.sensor_rejected;
    retries += nr.actuator_retries;
    safe_mode += nr.safe_mode_epochs;
  }
  std::cout << "\nchaos run absorbed: " << injected << " injected faults, "
            << rejected << " sensor readings rejected, " << retries
            << " actuator retries, " << safe_mode
            << " safe-mode epochs\nQoS delta vs fault-free: "
            << TablePrinter::fmt_pct(chaos.fleet_qos_guarantee_rate -
                                         clean.fleet_qos_guarantee_rate,
                                     2)
            << "\n";

  if (!jsonl_path.empty()) {
    if (!cluster::write_cluster_jsonl(chaos, jsonl_path)) {
      std::cerr << "cannot write " << jsonl_path << "\n";
      return 1;
    }
    std::cout << "\nchaos roll-up written to " << jsonl_path << "\n";
  }
  return 0;
}
