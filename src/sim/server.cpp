#include "sim/server.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/cache_model.h"
#include "util/check.h"
#include "util/invariants.h"
#include "util/rng.h"

namespace sturgeon::sim {

SimulatedServer::SimulatedServer(const LsProfile& ls, const BeProfile& be,
                                 std::uint64_t seed, ServerConfig config)
    : ls_(ls),
      be_(be),
      config_(config),
      power_model_(config.machine, config.power),
      partition_(Partition::all_to_ls(config.machine)),
      queue_(derive_seed(seed, 0)),
      interference_(config.interference, derive_seed(seed, 1)),
      noise_rng_(derive_seed(seed, 2)) {}

void SimulatedServer::set_partition(const Partition& p) {
  if (!p.enforceable_on(config_.machine)) {
    throw std::invalid_argument("set_partition: invalid partition " +
                                p.to_string(config_.machine));
  }
  partition_ = p;
}

void SimulatedServer::reset() {
  queue_.reset();
  interference_ = InterferenceProcess(config_.interference,
                                      noise_rng_.next_u64());
  partition_ = Partition::all_to_ls(config_.machine);
}

double SimulatedServer::ls_mean_demand_ms(const AppSlice& s,
                                          double bw_overcommit,
                                          double interference) const {
  const double f = config_.machine.freq_at(s.freq_level);
  const double cache = cache_inflation(config_.machine, s.llc_ways,
                                       ls_.cache_wss_mb,
                                       ls_.cache_sensitivity);
  const double ls_miss = miss_ratio(config_.machine, s.llc_ways,
                                    ls_.cache_wss_mb);
  // Bandwidth contention hurts in proportion to how much the LS service
  // actually goes to memory (its miss ratio): giving the LS slice more
  // LLC shields it, which is the indirect regulation the balancer uses.
  const double bw = 1.0 + ls_.bw_sensitivity * bw_overcommit * ls_miss /
                              std::max(1e-9, miss_ratio(config_.machine, 1,
                                                        ls_.cache_wss_mb));
  return ls_.work_ghz_ms / f * cache * bw * interference;
}

double SimulatedServer::be_raw_throughput(const AppSlice& s) const {
  if (s.cores <= 0) return 0.0;
  const double f = config_.machine.freq_at(s.freq_level);
  const double f_norm = f / config_.machine.max_freq_ghz();
  const double cache = cache_inflation(config_.machine, std::max(1, s.llc_ways),
                                       be_.cache_wss_mb,
                                       be_.cache_sensitivity);
  return be_.base_ops_per_core *
         amdahl_speedup(s.cores, be_.parallel_fraction) *
         std::pow(f_norm, be_.freq_exponent) / cache;
}

double SimulatedServer::be_solo_throughput() const {
  AppSlice solo{config_.machine.num_cores, config_.machine.max_freq_level(),
                config_.machine.llc_ways};
  // Solo run: the whole LLC, no co-runner -> no bandwidth overcommit
  // (per-app demands are below machine bandwidth by construction).
  return be_raw_throughput(solo);
}

SimulatedServer::BwState SimulatedServer::bandwidth_state(
    double load_fraction, double be_thr_raw) const {
  BwState bw;
  const double ls_miss_now = miss_ratio(config_.machine,
                                        std::max(1, partition_.ls.llc_ways),
                                        ls_.cache_wss_mb);
  // LS traffic is referenced to a half-LLC allocation (its typical
  // co-location share) and capped: squeezing the LS slice raises its
  // traffic, but a leaf service's request stream bounds how much.
  const double ls_miss_ref = miss_ratio(
      config_.machine, std::max(1, config_.machine.llc_ways / 2),
      ls_.cache_wss_mb);
  const double ls_ratio =
      ls_miss_ref > 0 ? std::min(3.0, ls_miss_now / ls_miss_ref) : 1.0;
  bw.ls_gbps = ls_.bw_gbps_at_peak * load_fraction * ls_ratio;

  if (partition_.be.cores > 0) {
    const double be_miss_now = miss_ratio(config_.machine,
                                          std::max(1, partition_.be.llc_ways),
                                          be_.cache_wss_mb);
    const double be_miss_full = miss_ratio(
        config_.machine, config_.machine.llc_ways, be_.cache_wss_mb);
    const double thr_norm = be_thr_raw / std::max(1e-9, be_solo_throughput());
    bw.be_gbps = be_.bw_gbps_max * thr_norm *
                 (be_miss_full > 0 ? be_miss_now / be_miss_full : 1.0);
  }
  const double total = bw.ls_gbps + bw.be_gbps;
  bw.overcommit = std::max(0.0, total / config_.machine.mem_bw_gbps - 1.0);
  return bw;
}

ServerTelemetry SimulatedServer::step(double load_fraction) {
  if (load_fraction < 0.0 || load_fraction > 1.0) {
    throw std::invalid_argument("step: load_fraction outside [0,1]");
  }
  ServerTelemetry t;
  t.load_fraction = load_fraction;
  t.qps_real = load_fraction * ls_.peak_qps;
  t.qos_target_ms = ls_.qos_target_ms;
  t.interference_factor = interference_.step();

  // Best-effort side first (its bandwidth pressure feeds the LS demand).
  const double be_thr_raw = be_raw_throughput(partition_.be);
  const BwState bw = bandwidth_state(load_fraction, be_thr_raw);
  t.bw_gbps = bw.ls_gbps + bw.be_gbps;

  // Bandwidth saturation throttles the BE application too.
  t.be_throughput = be_thr_raw / (1.0 + bw.overcommit);
  t.be_throughput_norm = t.be_throughput / std::max(1e-9,
                                                    be_solo_throughput());
  if (partition_.be.cores > 0) {
    const double f = config_.machine.freq_at(partition_.be.freq_level);
    t.be_ipc = t.be_throughput /
               (static_cast<double>(partition_.be.cores) * f);
  }

  // Latency-sensitive side: one second of queueing.
  const double demand_ms = ls_mean_demand_ms(partition_.ls, bw.overcommit,
                                             t.interference_factor);
  const double qps_sim = load_fraction * ls_.sim_peak_qps();
  t.ls = queue_.step(1000.0, partition_.ls.cores, qps_sim, demand_ms,
                     ls_.service_cv, ls_.qos_target_ms);

  // Package power: the paper trains on interval-peak power; our model is
  // quasi-static so the mean is the peak, plus sensor noise.
  const double be_util = partition_.be.cores > 0 ? 1.0 : 0.0;
  const double power = power_model_.package_power_w(
      partition_.ls, t.ls.utilization, ls_.power_activity, partition_.be,
      be_util, be_.power_activity, t.bw_gbps);
  t.power_w = power * (1.0 + noise_rng_.normal(0.0, config_.power_noise));

  // The sample crosses into the telemetry/controller layers: everything a
  // controller reads must be finite, and rates/powers non-negative.
  STURGEON_DCHECK(std::isfinite(t.power_w) && t.power_w >= 0.0,
                  "step: power = " << t.power_w);
  STURGEON_DCHECK(std::isfinite(t.ls.p95_ms) && t.ls.p95_ms >= 0.0,
                  "step: p95 = " << t.ls.p95_ms);
  STURGEON_DCHECK(std::isfinite(t.be_throughput) && t.be_throughput >= 0.0,
                  "step: be throughput = " << t.be_throughput);
  STURGEON_DCHECK(std::isfinite(t.bw_gbps) && t.bw_gbps >= 0.0,
                  "step: bandwidth = " << t.bw_gbps);

  // Per-workload breakdown (LS then BE).
  SliceTelemetry ls_view;
  ls_view.kind = WorkloadKind::kLatencySensitive;
  ls_view.slice = partition_.ls;
  ls_view.p95_ms = t.ls.p95_ms;
  ls_view.qos_target_ms = t.qos_target_ms;
  ls_view.qos_met = t.qos_met();
  SliceTelemetry be_view;
  be_view.kind = WorkloadKind::kBestEffort;
  be_view.slice = partition_.be;
  be_view.throughput = t.be_throughput;
  be_view.throughput_norm = t.be_throughput_norm;
  t.slices = {ls_view, be_view};
  return t;
}

double SimulatedServer::power_budget_w() const {
  // The LS service alone on the whole machine at peak load: analytic
  // utilization = arrival rate x mean demand / cores.
  const MachineSpec& m = config_.machine;
  AppSlice all{m.num_cores, m.max_freq_level(), m.llc_ways};
  const double demand_ms = ls_mean_demand_ms(all, 0.0, 1.0);
  const double qps_sim = ls_.sim_peak_qps();
  const double util = std::min(
      1.0, qps_sim / 1000.0 * demand_ms / static_cast<double>(m.num_cores));
  const double bw = ls_.bw_gbps_at_peak;
  AppSlice none{0, 0, 0};
  return power_model_.package_power_w(all, util, ls_.power_activity, none,
                                      0.0, 0.0, bw);
}

}  // namespace sturgeon::sim
