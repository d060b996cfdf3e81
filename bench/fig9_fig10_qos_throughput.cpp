// Figs 9 & 10 reproduction: the headline evaluation. All 18 co-location
// pairs run the paper's fluctuating trace (load 20% -> 80% -> 20% of
// peak) under three controllers:
//   Sturgeon        -- predictor + preference-aware balancer,
//   Sturgeon-NoB    -- balancer disabled (ablation),
//   PARTIES         -- power-enhanced feedback baseline.
//
//   Fig 9:  QoS guarantee rate (queries completed within target).
//   Fig 10: BE throughput normalized to its solo run.
//
// Paper shape: Sturgeon and PARTIES hold the guarantee rate >= 95% on
// every pair while Sturgeon-NoB violates on most (12/18); Sturgeon's BE
// throughput exceeds PARTIES's by ~25% on average and sits a few percent
// below Sturgeon-NoB's (the balancer's price, ~4.4% in the paper).
#include <iostream>

#include "baselines/parties.h"
#include "bench_common.h"
#include "cluster/node.h"
#include "core/controller.h"
#include "exp/model_registry.h"
#include "util/table.h"

using namespace sturgeon;

int main() {
  const auto trace = bench::evaluation_trace();
  const auto trainer_cfg = bench::trainer_config();

  TablePrinter fig9({"pair", "Sturgeon", "Sturgeon-NoB", "PARTIES"});
  TablePrinter fig10({"pair", "Sturgeon", "Sturgeon-NoB", "PARTIES"});

  double thr_st = 0.0, thr_nob = 0.0, thr_pa = 0.0;
  int fail_st = 0, fail_nob = 0, fail_pa = 0;
  int overload_st = 0, overload_pa = 0;
  int pairs = 0;

  for (const auto& ls : ls_catalog()) {
    for (const auto& be : be_catalog()) {
      const auto predictor = exp::predictor_for(ls, be, trainer_cfg);
      sim::SimulatedServer probe(ls, be, 7);
      const double budget = probe.power_budget_w();
      cluster::RunConfig rc;
      rc.seed = bench::pair_seed(ls.name, be.name);

      core::SturgeonController sturgeon(predictor, ls.qos_target_ms, budget);
      const auto r_st = cluster::run_colocation(ls, be, sturgeon, trace, rc);

      core::SturgeonOptions nob_opts;
      nob_opts.enable_balancer = false;
      core::SturgeonController nob(predictor, ls.qos_target_ms, budget,
                                   nob_opts);
      const auto r_nob = cluster::run_colocation(ls, be, nob, trace, rc);

      baselines::PartiesOptions po;
      po.power_budget_w = budget;
      baselines::PartiesController parties(probe.machine(), ls.qos_target_ms,
                                           po);
      const auto r_pa = cluster::run_colocation(ls, be, parties, trace, rc);

      const std::string pair = be.name + " under " + ls.name;
      fig9.add_row({pair, TablePrinter::fmt_pct(r_st.qos_guarantee_rate, 2),
                    TablePrinter::fmt_pct(r_nob.qos_guarantee_rate, 2),
                    TablePrinter::fmt_pct(r_pa.qos_guarantee_rate, 2)});
      fig10.add_row({pair,
                     TablePrinter::fmt(r_st.mean_be_throughput_norm, 3),
                     TablePrinter::fmt(r_nob.mean_be_throughput_norm, 3),
                     TablePrinter::fmt(r_pa.mean_be_throughput_norm, 3)});

      thr_st += r_st.mean_be_throughput_norm;
      thr_nob += r_nob.mean_be_throughput_norm;
      thr_pa += r_pa.mean_be_throughput_norm;
      if (r_st.qos_guarantee_rate < 0.95) ++fail_st;
      if (r_nob.qos_guarantee_rate < 0.95) ++fail_nob;
      if (r_pa.qos_guarantee_rate < 0.95) ++fail_pa;
      if (r_st.max_power_ratio > 1.02) ++overload_st;
      if (r_pa.max_power_ratio > 1.02) ++overload_pa;
      ++pairs;
    }
  }

  std::cout << "Fig 9: QoS guarantee rate over the fluctuating trace "
               "(queries within target)\n\n";
  fig9.print(std::cout);
  std::cout << "\npairs below the 95% guarantee: Sturgeon " << fail_st << "/"
            << pairs << ", Sturgeon-NoB " << fail_nob << "/" << pairs
            << ", PARTIES " << fail_pa << "/" << pairs
            << "\n(paper: Sturgeon & PARTIES none, Sturgeon-NoB 12/18)\n\n";

  std::cout << "Fig 10: normalized BE throughput over the same runs\n\n";
  fig10.print(std::cout);
  const double n = static_cast<double>(pairs);
  std::cout << "\nmean throughput: Sturgeon "
            << TablePrinter::fmt(thr_st / n, 3) << ", Sturgeon-NoB "
            << TablePrinter::fmt(thr_nob / n, 3) << ", PARTIES "
            << TablePrinter::fmt(thr_pa / n, 3) << "\nSturgeon vs PARTIES: "
            << TablePrinter::fmt_pct(thr_st / thr_pa - 1.0, 2)
            << " (paper: +24.96%); balancer cost vs NoB: "
            << TablePrinter::fmt_pct(1.0 - thr_st / thr_nob, 2)
            << " (paper: 4.38%)\n";
  std::cout << "power overload (>2% above budget in any interval): Sturgeon "
            << overload_st << "/" << pairs << ", PARTIES " << overload_pa
            << "/" << pairs << " (paper: Sturgeon 0, PARTIES 7/18)\n";
  return 0;
}
