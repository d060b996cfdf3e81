// Ablations beyond the paper's figures (DESIGN.md section 4):
//
//   A. alpha/beta slack-band sensitivity (Section IV discusses the
//      trade-off qualitatively: larger alpha protects QoS but wastes
//      resources; smaller beta frees resources faster but risks QoS).
//   B. Search-strategy parity: Sturgeon's O(N log N) binary search vs the
//      exhaustive O(N^4) reference on the *same predictor* -- how much
//      predicted BE throughput does pruning give up?
//   C. Heracles-style DVFS-only power control as a second baseline on the
//      memcached pairs (Table I positions Heracles as power-aware but
//      preference-blind).
#include <iostream>

#include "baselines/heracles.h"
#include "bench_common.h"
#include "cluster/node.h"
#include "core/config_search.h"
#include "core/controller.h"
#include "exp/model_registry.h"
#include "util/table.h"

using namespace sturgeon;

namespace {

void ablation_alpha_beta() {
  const auto& ls = find_ls("memcached");
  const auto& be = find_be("rt");
  const auto predictor = exp::predictor_for(ls, be, bench::trainer_config());
  sim::SimulatedServer probe(ls, be, 7);
  const double budget = probe.power_budget_w();
  const auto trace = bench::evaluation_trace();
  cluster::RunConfig rc;
  rc.seed = bench::pair_seed(ls.name, be.name);

  TablePrinter table({"alpha/beta", "QoS rate", "BE throughput",
                      "searches", "balancer acts"});
  const std::pair<double, double> bands[] = {
      {0.05, 0.12}, {0.10, 0.20}, {0.15, 0.30}, {0.25, 0.45}};
  for (const auto& [alpha, beta] : bands) {
    core::SturgeonOptions opts;
    opts.alpha = alpha;
    opts.beta = beta;
    core::SturgeonController ctl(predictor, ls.qos_target_ms, budget, opts);
    const auto r = cluster::run_colocation(ls, be, ctl, trace, rc);
    table.add_row({TablePrinter::fmt(alpha, 2) + "/" +
                       TablePrinter::fmt(beta, 2),
                   TablePrinter::fmt_pct(r.qos_guarantee_rate, 2),
                   TablePrinter::fmt(r.mean_be_throughput_norm, 3),
                   std::to_string(ctl.searches_run()),
                   std::to_string(ctl.balancer_actions())});
  }
  std::cout << "A. alpha/beta slack band (memcached+rt, paper default "
               "0.10/0.20):\n\n";
  table.print(std::cout);
  std::cout << "\n";
}

void ablation_balancer_granularity() {
  const auto& ls = find_ls("memcached");
  const auto& be = find_be("fd");  // the contention-heavy pair
  const auto predictor = exp::predictor_for(ls, be, bench::trainer_config());
  sim::SimulatedServer probe(ls, be, 7);
  const double budget = probe.power_budget_w();
  const auto trace = bench::evaluation_trace();
  cluster::RunConfig rc;
  rc.seed = bench::pair_seed(ls.name, be.name);

  TablePrinter table({"initial granularity", "QoS rate", "BE throughput",
                      "balancer acts"});
  for (double g : {0.125, 0.25, 0.5, 1.0}) {
    core::SturgeonOptions opts;
    opts.balancer_granularity = g;
    core::SturgeonController ctl(predictor, ls.qos_target_ms, budget, opts);
    const auto r = cluster::run_colocation(ls, be, ctl, trace, rc);
    table.add_row({TablePrinter::fmt(g, 3),
                   TablePrinter::fmt_pct(r.qos_guarantee_rate, 2),
                   TablePrinter::fmt(r.mean_be_throughput_norm, 3),
                   std::to_string(ctl.balancer_actions())});
  }
  std::cout << "A2. balancer binary-harvest granularity (memcached+fd, the "
               "pair that\nexercises the balancer hardest; paper default "
               "0.5):\n\n";
  table.print(std::cout);
  std::cout << "\n";
}

void ablation_search_parity() {
  const auto& ls = find_ls("memcached");
  const auto& be = find_be("rt");
  const auto predictor = exp::predictor_for(ls, be, bench::trainer_config());
  sim::SimulatedServer probe(ls, be, 7);
  core::ConfigSearch search(*predictor, probe.power_budget_w());

  TablePrinter table({"load", "binary-search thr", "exhaustive thr",
                      "gap", "calls binary", "calls exhaustive"});
  for (double load : {0.2, 0.35, 0.5, 0.65, 0.8}) {
    const double qps = load * ls.peak_qps;
    const auto fast = search.search(qps);
    const auto full = search.exhaustive(qps);
    const double gap =
        full.predicted_throughput > 0
            ? 1.0 - fast.predicted_throughput / full.predicted_throughput
            : 0.0;
    table.add_row({TablePrinter::fmt_pct(load, 0),
                   TablePrinter::fmt(fast.predicted_throughput, 3),
                   TablePrinter::fmt(full.predicted_throughput, 3),
                   TablePrinter::fmt_pct(gap, 2),
                   std::to_string(fast.model_invocations),
                   std::to_string(full.model_invocations)});
  }
  std::cout << "B. binary search vs exhaustive reference (same predictor; "
               "paper claims\nthe pruned search finds the maximum-throughput "
               "configuration):\n\n";
  table.print(std::cout);
  std::cout << "\n";
}

void ablation_heracles() {
  const auto& ls = find_ls("memcached");
  const auto trace = bench::evaluation_trace();

  TablePrinter table({"pair", "policy", "QoS rate", "BE thr", "max P/budget"});
  for (const auto& be : be_catalog()) {
    const auto predictor =
        exp::predictor_for(ls, be, bench::trainer_config());
    sim::SimulatedServer probe(ls, be, 7);
    const double budget = probe.power_budget_w();
    cluster::RunConfig rc;
    rc.seed = bench::pair_seed(ls.name, be.name);

    core::SturgeonController sturgeon(predictor, ls.qos_target_ms, budget);
    const auto r_st = cluster::run_colocation(ls, be, sturgeon, trace, rc);
    baselines::HeraclesOptions ho;
    ho.power_budget_w = budget;
    baselines::HeraclesController heracles(probe.machine(), ls.qos_target_ms,
                                           ho);
    const auto r_he = cluster::run_colocation(ls, be, heracles, trace, rc);

    table.add_row({be.name + "+" + ls.name, "Sturgeon",
                   TablePrinter::fmt_pct(r_st.qos_guarantee_rate, 2),
                   TablePrinter::fmt(r_st.mean_be_throughput_norm, 3),
                   TablePrinter::fmt(r_st.max_power_ratio, 3)});
    table.add_row({"", "Heracles",
                   TablePrinter::fmt_pct(r_he.qos_guarantee_rate, 2),
                   TablePrinter::fmt(r_he.mean_be_throughput_norm, 3),
                   TablePrinter::fmt(r_he.max_power_ratio, 3)});
  }
  std::cout << "C. Heracles-style DVFS-only power control vs Sturgeon "
               "(memcached pairs):\n\n";
  table.print(std::cout);
}

}  // namespace

int main() {
  std::cout << "Controller ablations (design choices from DESIGN.md)\n\n";
  ablation_alpha_beta();
  ablation_balancer_granularity();
  ablation_search_parity();
  ablation_heracles();
  return 0;
}
