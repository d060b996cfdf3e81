// Fig 11 reproduction: resource-allocation time series for the
// memcached + raytrace pair as the load ramps from 20% to 50% of peak,
// under Sturgeon and under the power-enhanced PARTIES.
//
// Paper shape: Sturgeon starts the LS service on a small fast slice and
// flips to a wider-but-slower LS slice as the load grows (leaving
// raytrace the resource it prefers at each load), while PARTIES walks
// unit-steps, settles on conservative allocations, and trails in BE
// throughput across the ramp.
#include <iostream>

#include "baselines/parties.h"
#include "bench_common.h"
#include "cluster/node.h"
#include "core/controller.h"
#include "exp/model_registry.h"
#include "util/table.h"

using namespace sturgeon;

int main() {
  const auto& ls = find_ls("memcached");
  const auto& be = find_be("rt");
  const auto trace =
      LoadTrace::ramp(0.2, 0.5, bench::quick_mode() ? 200 : 400);
  const auto predictor = exp::predictor_for(ls, be, bench::trainer_config());
  sim::SimulatedServer probe(ls, be, 7);
  const double budget = probe.power_budget_w();

  cluster::RunConfig rc;
  rc.seed = bench::pair_seed(ls.name, be.name);
  rc.record_trace = true;

  core::SturgeonController sturgeon(predictor, ls.qos_target_ms, budget);
  const auto r_st = cluster::run_colocation(ls, be, sturgeon, trace, rc);

  baselines::PartiesOptions po;
  po.power_budget_w = budget;
  baselines::PartiesController parties(probe.machine(), ls.qos_target_ms, po);
  const auto r_pa = cluster::run_colocation(ls, be, parties, trace, rc);

  const int stride = trace.duration_s() / 20;
  std::cout << "Fig 11: memcached + raytrace, load ramp 20% -> 50% of peak\n";
  std::cout << "\n--- Sturgeon ---\n";
  r_st.telemetry->recorder().write_summary(std::cout, stride);
  std::cout << "\n--- PARTIES (power-enhanced) ---\n";
  r_pa.telemetry->recorder().write_summary(std::cout, stride);

  std::cout << "\nrun means: Sturgeon BE throughput "
            << TablePrinter::fmt(r_st.mean_be_throughput_norm, 3)
            << " (QoS " << TablePrinter::fmt_pct(r_st.qos_guarantee_rate, 2)
            << "), PARTIES "
            << TablePrinter::fmt(r_pa.mean_be_throughput_norm, 3) << " (QoS "
            << TablePrinter::fmt_pct(r_pa.qos_guarantee_rate, 2)
            << ")\n(paper: Sturgeon's configuration dominates across the "
               "ramp)\n";
  return 0;
}
