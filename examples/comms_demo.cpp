// Chaos-net quickstart: the same fleet run twice with comms enabled --
// once over a zero-fault network (the "reliable" row), once under
// chaos-net (message drops, reordering, and a full coordinator
// partition window), where all coordinator traffic crosses the
// simulated message channel. Cap grants are leases; nodes whose lease
// lapses fall back to a conservative autonomous cap, so the budget is
// never oversubscribed no matter what the network eats.
//
// The side-by-side table is the point: on a zero-fault network every
// message would land in its send epoch, so the "reliable" run IS the
// direct shared-memory path (no message sent); the chaos run keeps
// max_cap_sum_ratio <= 1 while the comms counters show what the
// network did and what the lease machinery absorbed.
//
// Usage: comms_demo [nodes=4] [duration_s=120] [cluster_jsonl_path]
// The optional third argument writes the *chaos-net* run's roll-up,
// which tools/trace_stats.py --cluster validates (including the comms
// accounting identity grants_sent == delivered + dropped + in_flight).
#include <cstdint>
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

cluster::ClusterConfig comms_config(int duration, bool chaos) {
  cluster::ClusterConfig config;
  config.seed = 7;
  config.coordinator = cluster::CoordinatorKind::kSlackHarvest;
  config.resilience.heartbeat.dead_after_epochs = 3;
  config.comms.enabled = true;
  config.comms.lease_epochs = 8;
  config.comms.renew_ahead_epochs = 3;
  if (chaos) {
    config.comms.network.drop_p = 0.15;
    config.comms.network.reorder_p = 0.5;
    config.comms.network.duplicate_p = 0.05;
    // One full coordinator partition for a sixth of the run: every
    // lease lapses and the fleet rides it out on autonomous caps.
    config.comms.network.partition_start_epoch = duration / 2;
    config.comms.network.partition_epochs = duration / 6;
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const int nodes = argc > 1 ? std::stoi(argv[1]) : 4;
  const int duration = argc > 2 ? std::stoi(argv[2]) : 120;
  const std::string jsonl_path = argc > 3 ? argv[3] : "";
  if (nodes < 2 || duration < 30) {
    std::cerr << "usage: comms_demo [nodes>=2] [duration_s>=30] [jsonl]\n";
    return 1;
  }

  std::cout << "Chaos-net demo: " << nodes << " nodes, " << duration
            << " epochs over the message channel; training models...\n";
  // Quiescence and churn stay off: every node steps every epoch.
  fleet::FleetConfig clean_config;
  clean_config.cluster = comms_config(duration, /*chaos=*/false);
  fleet::FleetSim clean_sim(build_fleet(nodes, duration), clean_config);
  const cluster::ClusterResult clean = clean_sim.run().cluster;

  fleet::FleetConfig chaos_config;
  chaos_config.cluster = comms_config(duration, /*chaos=*/true);
  fleet::FleetSim chaos_sim(build_fleet(nodes, duration), chaos_config);
  const cluster::ClusterResult chaos = chaos_sim.run().cluster;

  TablePrinter table({"network", "fleet QoS", "agg BE thr",
                      "max cap-sum ratio", "dead epochs", "msgs dropped",
                      "lease expiries", "autonomy epochs"});
  for (const auto* r : {&clean, &chaos}) {
    table.add_row({r == &clean ? "reliable" : "chaos-net",
                   TablePrinter::fmt_pct(r->fleet_qos_guarantee_rate, 2),
                   TablePrinter::fmt(r->aggregate_be_throughput, 3),
                   TablePrinter::fmt(r->max_cap_sum_ratio, 3),
                   std::to_string(r->dead_node_epochs),
                   std::to_string(r->comms_dropped),
                   std::to_string(r->comms_lease_expiries),
                   std::to_string(r->comms_autonomy_epochs)});
  }
  table.print(std::cout);

  std::cout << "\nchaos-net channel: " << chaos.comms_sent
            << " messages sent, " << chaos.comms_dropped << " dropped, "
            << chaos.comms_delayed << " delayed, " << chaos.comms_duplicated
            << " duplicated\ngrant ledger: " << chaos.comms_grants_sent
            << " sent == " << chaos.comms_grants_delivered << " delivered + "
            << chaos.comms_grants_dropped << " dropped + "
            << chaos.comms_grants_in_flight
            << " in flight\nlease machinery: " << chaos.comms_lease_renewals
            << " renewals, " << chaos.comms_lease_expiries << " expiries, "
            << chaos.comms_autonomy_epochs
            << " autonomous node-epochs\nQoS delta vs reliable: "
            << TablePrinter::fmt_pct(chaos.fleet_qos_guarantee_rate -
                                         clean.fleet_qos_guarantee_rate,
                                     2)
            << "\n";

  if (!jsonl_path.empty()) {
    if (!cluster::write_cluster_jsonl(chaos, jsonl_path)) {
      std::cerr << "cannot write " << jsonl_path << "\n";
      return 1;
    }
    std::cout << "\nchaos-net roll-up written to " << jsonl_path << "\n";
  }
  return 0;
}
