// Co-location policy shoot-out on a chosen pair and load pattern.
//
// Usage: colocation_demo [ls] [be] [trace] [csv_path]
//   ls    : memcached | xapian | img-dnn          (default memcached)
//   be    : bs | fa | fe | rt | sp | fd           (default fe)
//   trace : ramp | diurnal | step                 (default diurnal)
//   csv   : optional path for the Sturgeon per-second trace
//
// Runs Sturgeon, Sturgeon-NoB, power-enhanced PARTIES and Heracles over
// the same load and prints the comparison; optionally dumps Sturgeon's
// per-second allocation trace as CSV for plotting.
#include <fstream>
#include <iostream>
#include <memory>

#include "baselines/heracles.h"
#include "baselines/parties.h"
#include "cluster/node.h"
#include "core/controller.h"
#include "exp/model_registry.h"
#include "util/table.h"

using namespace sturgeon;

namespace {

LoadTrace make_trace(const std::string& kind) {
  if (kind == "ramp") return LoadTrace::ramp_up_down(0.2, 0.8, 240);
  if (kind == "step") {
    return LoadTrace::steps({0.2, 0.5, 0.3, 0.7, 0.25, 0.6}, 40);
  }
  if (kind == "diurnal") {
    return LoadTrace::diurnal(0.15, 0.85, 240).with_noise(0.05, 11);
  }
  throw std::invalid_argument("unknown trace kind '" + kind +
                              "' (ramp|diurnal|step)");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string ls_name = argc > 1 ? argv[1] : "memcached";
  const std::string be_name = argc > 2 ? argv[2] : "fe";
  const std::string trace_kind = argc > 3 ? argv[3] : "diurnal";
  const std::string csv_path = argc > 4 ? argv[4] : "";

  const auto& ls = find_ls(ls_name);
  const auto& be = find_be(be_name);
  const auto trace = make_trace(trace_kind);
  std::cout << "Pair " << ls.name << " + " << be.name << " on a "
            << trace_kind << " trace (" << trace.duration_s() << " s)\n"
            << "Training models (cached per process)...\n";
  const auto predictor = exp::predictor_for(ls, be);
  sim::SimulatedServer probe(ls, be, 7);
  const double budget = probe.power_budget_w();

  cluster::RunConfig rc;
  rc.seed = 2024;
  rc.record_trace = !csv_path.empty();

  TablePrinter table({"policy", "QoS rate", "BE thr", "over-budget s",
                      "max P/budget"});
  const auto report = [&](core::Policy& policy) {
    std::cout << "  " << policy.describe() << "\n";
    const auto r = cluster::run_colocation(ls, be, policy, trace, rc);
    table.add_row({policy.name(),
                   TablePrinter::fmt_pct(r.qos_guarantee_rate, 2),
                   TablePrinter::fmt(r.mean_be_throughput_norm, 3),
                   TablePrinter::fmt_pct(r.power_overshoot_fraction, 1),
                   TablePrinter::fmt(r.max_power_ratio, 3)});
    return r;
  };

  core::SturgeonController sturgeon(predictor, ls.qos_target_ms, budget);
  const auto r_sturgeon = report(sturgeon);

  core::SturgeonOptions nob_opts;
  nob_opts.enable_balancer = false;
  core::SturgeonController nob(predictor, ls.qos_target_ms, budget, nob_opts);
  report(nob);

  baselines::PartiesOptions po;
  po.power_budget_w = budget;
  baselines::PartiesController parties(probe.machine(), ls.qos_target_ms, po);
  report(parties);

  baselines::HeraclesOptions ho;
  ho.power_budget_w = budget;
  baselines::HeraclesController heracles(probe.machine(), ls.qos_target_ms,
                                         ho);
  report(heracles);

  std::cout << "\nbudget " << budget << " W, QoS target " << ls.qos_target_ms
            << " ms p95\n\n";
  table.print(std::cout);

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) {
      std::cerr << "cannot open " << csv_path << "\n";
      return 1;
    }
    r_sturgeon.telemetry->recorder().write_csv(out);
    std::cout << "\nSturgeon per-second trace written to " << csv_path
              << "\n";
  }
  return 0;
}
