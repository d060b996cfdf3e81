// Fault-machinery overhead gate: the resilience stack (injector hooks,
// retrying enforcer, watchdog, heartbeat tracker) is compiled into every
// node, so a fleet that never injects a fault must pay (almost) nothing
// for it.
//
// Two 64-node lockstep runs, identical seed and fleet:
//
//   baseline  -- ClusterConfig defaults (resilience off, injector null);
//   armed     -- sanitizer + watchdog + retry + heartbeat all enabled,
//                FaultConfig still disabled (the hooks run, inject zero).
//
// Gates:
//   1. both runs clear the PR4 throughput floor minus the 1% overhead
//      allowance (>= 49.5 epochs/sec at 64 nodes);
//   2. the disabled injector injects nothing, and the armed fleet's QoS
//      stays within a point of baseline (the sanitizer's median filter
//      may lag clean readings by a step, so "armed" is close, not
//      bit-identical -- bit-identity for *default* resilience is a unit
//      test, not a bench).
//
// The relative wall-clock delta is printed for the record but not
// gated: on a shared runner a sub-1% timing comparison is noise, while
// the absolute floor is stable.
//
// Exits non-zero if a gate fails. STURGEON_QUICK=1 shrinks the run (and
// scales the floor with it).
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fleet/fleet.h"
#include "util/rng.h"
#include "util/table.h"

using namespace sturgeon;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "  [pass] " : "  [FAIL] ") << what << "\n";
  if (!ok) ++g_failures;
}

core::TrainerConfig cluster_trainer() {
  core::TrainerConfig cfg;
  cfg.ls_samples = 250;
  cfg.ls_boundary_searches = 60;
  cfg.be_samples = 150;
  return cfg;
}

/// Same scaled-DES profile trick as cluster_scale.cpp: the bench times
/// the control plane (where the fault hooks live), not event fidelity.
LsProfile scaled_ls() {
  LsProfile ls = find_ls("memcached");
  ls.name = "memcached-scale";
  ls.sim_scale = 0.02;
  return ls;
}

std::vector<cluster::NodeSpec> uniform_fleet(int n, const LoadTrace& base) {
  const auto& bes = be_catalog();
  const LsProfile ls = scaled_ls();
  std::vector<cluster::NodeSpec> specs;
  specs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    cluster::NodeSpec spec;
    spec.ls = ls;
    spec.be = bes[static_cast<std::size_t>(i) % bes.size()];
    spec.trace =
        base.with_noise(0.05, derive_seed(9, static_cast<std::uint64_t>(i)));
    spec.trainer = cluster_trainer();
    specs.push_back(std::move(spec));
  }
  return specs;
}

cluster::ResilienceConfig armed_resilience() {
  cluster::ResilienceConfig r;
  r.sanitize_sensors = true;
  r.watchdog.enabled = true;
  r.heartbeat.dead_after_epochs = 3;
  return r;
}

cluster::ClusterResult timed_run(int nodes, int epochs, bool armed,
                                 double* wall_s) {
  // Quiescence and churn stay off: every node steps every epoch.
  fleet::FleetConfig config;
  config.cluster.seed = 11;
  config.cluster.coordinator = cluster::CoordinatorKind::kSlackHarvest;
  config.cluster.oversubscription = 0.90;
  if (armed) config.cluster.resilience = armed_resilience();
  // config.cluster.faults stays default-constructed: injector disabled.
  const LoadTrace base = LoadTrace::diurnal(0.2, 0.8, epochs);
  fleet::FleetSim sim(uniform_fleet(nodes, base), config);
  const auto t1 = std::chrono::steady_clock::now();
  const auto result = sim.run().cluster;
  const auto t2 = std::chrono::steady_clock::now();
  *wall_s = std::chrono::duration<double>(t2 - t1).count();
  return result;
}

}  // namespace

int main() {
  const bool quick = bench::quick_mode();
  const int nodes = 64;
  const int epochs = quick ? 60 : 120;

  std::cout << "== overhead_fault: disabled-injector cost at " << nodes
            << " nodes ==\n";
  TablePrinter table({"config", "epochs", "wall s", "epochs/s"});

  double base_wall = 0.0, armed_wall = 0.0;
  const auto base = timed_run(nodes, epochs, /*armed=*/false, &base_wall);
  const auto armed = timed_run(nodes, epochs, /*armed=*/true, &armed_wall);
  const double base_eps = static_cast<double>(base.epochs) / base_wall;
  const double armed_eps = static_cast<double>(armed.epochs) / armed_wall;
  table.add_row({"baseline (defaults)", std::to_string(base.epochs),
                 TablePrinter::fmt(base_wall, 2),
                 TablePrinter::fmt(base_eps, 1)});
  table.add_row({"armed, zero faults", std::to_string(armed.epochs),
                 TablePrinter::fmt(armed_wall, 2),
                 TablePrinter::fmt(armed_eps, 1)});
  table.print(std::cout);
  std::cout << "  relative delta: "
            << TablePrinter::fmt_pct((base_eps - armed_eps) / base_eps, 1)
            << " (informational)\n";

  expect(armed_eps >= 49.5,
         "armed fleet sustains >= 49.5 epochs/sec (50 eps floor - 1%)");
  expect(base_eps >= 49.5,
         "baseline fleet sustains >= 49.5 epochs/sec (50 eps floor - 1%)");

  std::uint64_t injected = 0;
  for (const auto& nr : armed.node_results) injected += nr.faults_injected;
  expect(injected == 0, "disabled injector injected nothing");
  expect(armed.fleet_qos_guarantee_rate >=
             base.fleet_qos_guarantee_rate - 0.01,
         "armed-but-fault-free fleet QoS within 1pp of baseline");
  expect(armed.dead_node_epochs == 0,
         "heartbeat tracker declared no false deaths");

  std::cout << (g_failures == 0 ? "\nall gates passed\n" : "\ngates FAILED\n");
  return g_failures == 0 ? 0 : 1;
}
