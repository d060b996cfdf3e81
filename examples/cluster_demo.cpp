// Cluster quickstart: a fleet of co-location nodes under one cluster
// power budget. Each node runs its own Sturgeon daemon over a diurnal
// load (with per-node dispatch jitter); the slack-harvesting coordinator
// re-splits the cluster budget every epoch, moving watts from nodes with
// QoS headroom to nodes near violation.
//
// Usage: cluster_demo [nodes=4] [duration_s=180] [cluster_jsonl_path]
// The optional third argument writes the per-node + cluster run_summary
// roll-up that tools/trace_stats.py --cluster validates.
#include <fstream>
#include <iostream>
#include <string>

#include "cluster/export.h"
#include "fleet/fleet.h"
#include "util/rng.h"
#include "util/table.h"

using namespace sturgeon;

int main(int argc, char** argv) {
  const int nodes = argc > 1 ? std::stoi(argv[1]) : 4;
  const int duration = argc > 2 ? std::stoi(argv[2]) : 180;
  const std::string jsonl_path = argc > 3 ? argv[3] : "";
  if (nodes < 1 || duration < 10) {
    std::cerr << "usage: cluster_demo [nodes>=1] [duration_s>=10] [jsonl]\n";
    return 1;
  }

  const auto& ls = find_ls("memcached");
  const auto& bes = be_catalog();

  // Reduced profiling campaign so the demo trains in seconds; the fleet
  // shares it (one campaign per process, distinct BEs train in parallel).
  core::TrainerConfig trainer;
  trainer.ls_samples = 250;
  trainer.ls_boundary_searches = 60;
  trainer.be_samples = 150;

  const auto cluster_load = LoadTrace::diurnal(0.15, 0.85, duration);

  std::vector<cluster::NodeSpec> specs;
  specs.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    cluster::NodeSpec spec;
    spec.ls = ls;
    spec.be = bes[static_cast<std::size_t>(n) % bes.size()];
    // Every node serves its dispatcher share of the diurnal day, with
    // +-7% jitter (imperfect load balancing), on an independent stream.
    spec.trace = cluster_load.with_noise(
        0.07, derive_seed(42, static_cast<std::uint64_t>(n)));
    spec.trainer = trainer;
    specs.push_back(std::move(spec));
  }

  // Quiescence and churn stay off: every node steps every epoch.
  fleet::FleetConfig config;
  config.cluster.seed = 7;
  config.cluster.coordinator = cluster::CoordinatorKind::kSlackHarvest;
  config.cluster.node_tracing = true;

  std::cout << "Cluster of " << nodes << " nodes serving " << ls.name
            << "; training models...\n";
  fleet::FleetSim sim(std::move(specs), config);
  std::cout << "cluster power budget: "
            << TablePrinter::fmt(sim.cluster_budget_w(), 1) << " W ("
            << TablePrinter::fmt_pct(config.cluster.oversubscription, 0)
            << " of the fleet's summed node budgets)\n\n";

  const cluster::ClusterResult result = sim.run().cluster;

  TablePrinter table({"node", "BE app", "QoS rate", "BE thr", "mean cap W",
                      "throttled"});
  for (const auto& nr : result.node_results) {
    table.add_row({std::to_string(nr.node), nr.be,
                   TablePrinter::fmt_pct(nr.qos_guarantee_rate, 2),
                   TablePrinter::fmt(nr.mean_be_throughput_norm, 3),
                   TablePrinter::fmt(nr.mean_cap_w, 1),
                   std::to_string(nr.throttled_epochs)});
  }
  table.print(std::cout);

  std::cout << "\ncoordinator: " << result.coordinator
            << "\nfleet QoS guarantee rate: "
            << TablePrinter::fmt_pct(result.fleet_qos_guarantee_rate, 2)
            << "\naggregate BE throughput: "
            << TablePrinter::fmt(result.aggregate_be_throughput, 3)
            << " solo-machine equivalents\nmean cluster power: "
            << TablePrinter::fmt(result.mean_cluster_power_w, 1)
            << " W (budget " << TablePrinter::fmt(result.cluster_power_budget_w, 1)
            << " W)\nmax cluster power ratio: "
            << TablePrinter::fmt(result.max_cluster_power_ratio, 3)
            << "\nepochs over budget: "
            << TablePrinter::fmt_pct(result.cluster_overshoot_fraction, 2)
            << "\n";

  if (!jsonl_path.empty()) {
    std::ofstream out(jsonl_path);
    if (!out) {
      std::cerr << "cannot open " << jsonl_path << "\n";
      return 1;
    }
    cluster::write_cluster_jsonl(result, out);
    std::cout << "\ncluster roll-up written to " << jsonl_path << "\n";
  }
  return 0;
}
