#include "workloads.h"

#include <algorithm>
#include <ctime>
#include <map>
#include <set>
#include <utility>

#include "digest.h"
#include "exp/model_registry.h"
#include "fleet/export.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace sturgeon;

namespace {

/// derive_seed stream label for the per-node trace noise.
constexpr std::uint64_t kTraceNoiseStream = 0x7A;

/// Threads that train the models during set-up, whatever the workload.
constexpr std::size_t kTrainThreads = 4;

std::int64_t since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

/// Reduced profiling campaign of the fleet examples (chaos_demo,
/// fleet_scale): the fleet workloads measure the fleet layers, not model
/// quality.
core::TrainerConfig fleet_trainer() {
  core::TrainerConfig cfg;
  cfg.ls_samples = 250;
  cfg.ls_boundary_searches = 60;
  cfg.be_samples = 150;
  return cfg;
}

LsProfile scaled_memcached(const char* name, double sim_scale) {
  LsProfile ls = find_ls("memcached");
  ls.name = name;
  ls.sim_scale = sim_scale;
  return ls;
}

TimedPolicy* timed_of(cluster::ClusterNode& node) {
  return dynamic_cast<TimedPolicy*>(&node.policy());
}

const core::SturgeonController* controller_of(cluster::ClusterNode& node) {
  if (const TimedPolicy* timed = timed_of(node)) return &timed->inner();
  return dynamic_cast<const core::SturgeonController*>(&node.policy());
}

/// Predictors are shared per (LS, BE) pair; count each one once.
std::uint64_t model_invocations(
    const std::vector<const core::Predictor*>& predictors) {
  std::uint64_t total = 0;
  for (const core::Predictor* p : predictors) total += p->model_invocations();
  return total;
}

std::vector<const core::Predictor*> distinct_predictors(
    const std::vector<cluster::ClusterNode*>& nodes) {
  std::set<const core::Predictor*> seen;
  for (cluster::ClusterNode* node : nodes) {
    if (const auto* c = controller_of(*node)) seen.insert(&c->predictor());
  }
  return {seen.begin(), seen.end()};
}

/// Per-node simulated statistics shared by every workload, summed over
/// the fleet, plus every NodeResult field folded into `digest`.
/// `results[i]` is node i's result as its engine reported it.
void add_node_stats(const std::vector<cluster::ClusterNode*>& nodes,
                    const std::vector<cluster::NodeResult>& results,
                    Stats& stats, Digest& digest) {
  std::map<std::string, double> sum;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const cluster::NodeResult& r = results[i];
    const core::SturgeonController* c = controller_of(*nodes[i]);
    const double searches =
        c != nullptr ? static_cast<double>(c->searches_run()) : 0.0;
    const double balancer =
        c != nullptr ? static_cast<double>(c->balancer_actions()) : 0.0;
    const double changes = static_cast<double>(
        r.telemetry->metrics().counter("run.partition_changes").value());
    digest.add(r.node).add(r.policy).add(r.ls).add(r.be).add(r.epochs);
    digest.add(r.total_completed).add(r.total_violations);
    digest.add(r.qos_guarantee_rate).add(r.interval_qos_rate);
    digest.add(r.mean_be_throughput_norm).add(r.budget_w).add(r.mean_cap_w);
    digest.add(r.max_power_ratio).add(r.throttled_epochs);
    digest.add(r.epochs_down).add(r.epochs_hung).add(r.safe_mode_epochs);
    digest.add(r.watchdog_trips);
    for (const int e : r.safe_mode_episodes) digest.add(e);
    digest.add(r.faults_injected).add(r.sensor_rejected);
    digest.add(r.actuator_retries).add(r.actuator_gave_up);
    digest.add(r.skipped_epochs).add(r.wakes);
    digest.add(r.lease_renewals).add(r.lease_expiries);
    digest.add(r.autonomy_epochs).add(r.last_autonomy_epoch);
    digest.add(searches).add(balancer).add(changes);

    sum["ls_completed"] += static_cast<double>(r.total_completed);
    sum["ls_violations"] += static_cast<double>(r.total_violations);
    sum["stepped_node_epochs"] += r.epochs;
    sum["skipped_node_epochs"] += r.skipped_epochs;
    sum["throttled_epochs"] += r.throttled_epochs;
    sum["safe_mode_epochs"] += r.safe_mode_epochs;
    sum["watchdog_trips"] += r.watchdog_trips;
    sum["faults_injected"] += static_cast<double>(r.faults_injected);
    sum["sensor_rejected"] += static_cast<double>(r.sensor_rejected);
    sum["actuator_retries"] += static_cast<double>(r.actuator_retries);
    sum["searches"] += searches;
    sum["balancer_actions"] += balancer;
    sum["partition_changes"] += changes;
    sum["be_throughput_sum"] += r.mean_be_throughput_norm;
  }
  for (const char* key :
       {"ls_completed", "ls_violations", "stepped_node_epochs",
        "skipped_node_epochs", "throttled_epochs", "safe_mode_epochs",
        "watchdog_trips", "faults_injected", "sensor_rejected",
        "actuator_retries", "searches", "balancer_actions",
        "partition_changes"}) {
    stats.emplace_back(key, sum[key]);
  }
  const double n = static_cast<double>(nodes.size());
  const double completed = sum["ls_completed"];
  stats.emplace_back("qos_rate",
                     completed == 0.0
                         ? 1.0
                         : (completed - sum["ls_violations"]) / completed);
  stats.emplace_back("be_throughput", sum["be_throughput_sum"] / n);
}

/// Decide timings (and spans) of every decorated node.
void collect_decides(const std::vector<cluster::ClusterNode*>& nodes,
                     bool keep_spans, EpisodeResult& out) {
  out.decide_spans.assign(keep_spans ? nodes.size() : 0, {});
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const TimedPolicy* timed = timed_of(*nodes[i]);
    if (timed == nullptr) continue;
    const auto& d = timed->cpu_ns();
    const auto& w = timed->wall_ns();
    out.decides += d.size();
    out.decide_ns.insert(out.decide_ns.end(), d.begin(), d.end());
    out.decide_wall_ns.insert(out.decide_wall_ns.end(), w.begin(), w.end());
    if (keep_spans) out.decide_spans[i] = timed->spans();
  }
}

// ---------------------------------------------------------------------

class PairsEpisode final : public Episode {
 public:
  PairsEpisode(std::vector<cluster::NodeSpec> specs, std::uint64_t seed,
               int epochs, EpisodeOptions options, Clock::time_point origin)
      : epochs_(epochs), options_(options), origin_(origin) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      auto ctx = telemetry::TelemetryContext::make(specs[i].server.machine);
      nodes_.push_back(std::make_unique<cluster::ClusterNode>(
          static_cast<int>(i), std::move(specs[i]),
          derive_seed(seed, static_cast<std::uint64_t>(i)), std::move(ctx)));
    }
  }

  EpisodeResult run() override {
    std::vector<cluster::ClusterNode*> nodes;
    for (auto& n : nodes_) nodes.push_back(n.get());
    const auto predictors = distinct_predictors(nodes);
    const std::uint64_t calls0 = model_invocations(predictors);

    EpisodeResult out;
    out.step_spans.assign(options_.keep_spans ? nodes.size() : 0, {});
    const auto step_node = [&](std::size_t i) {
      cluster::ClusterNode& node = *nodes[i];
      TimedPolicy* timed = timed_of(node);
      for (int t = 0; t < epochs_; ++t) {
        if (timed != nullptr) timed->set_epoch(t);
        if (options_.keep_spans) {
          const Clock::time_point s = Clock::now();
          node.step(t);
          const Clock::time_point e = Clock::now();
          out.step_spans[i].push_back({t, since(origin_, s), since(origin_, e)});
        } else {
          node.step(t);
        }
      }
    };
    const std::clock_t c0 = std::clock();
    const Clock::time_point t0 = Clock::now();
    if (options_.threads > 1) {
      ThreadPool pool(options_.threads);
      pool.parallel_for(nodes.size(), step_node);
    } else {
      for (std::size_t i = 0; i < nodes.size(); ++i) step_node(i);
    }
    const Clock::time_point t1 = Clock::now();
    out.run_s = std::chrono::duration<double>(t1 - t0).count();
    out.cpu_s = static_cast<double>(std::clock() - c0) / CLOCKS_PER_SEC;
    out.run_start_ns = since(origin_, t0);
    out.run_end_ns = since(origin_, t1);
    out.model_calls = model_invocations(predictors) - calls0;

    std::vector<cluster::NodeResult> results;
    for (cluster::ClusterNode* node : nodes) results.push_back(node->result());
    Digest digest;
    add_node_stats(nodes, results, out.stats, digest);
    // No coordinator: each node's cap is its natural budget, so the
    // cap-sum check reads mean cap over budget. The overshoot share is
    // counted from the samples decide() saw, exactly as RunMetrics
    // counts it (no tolerance).
    double overshoot = 0.0, intervals = 0.0, seen_completed = 0.0;
    double max_cap_ratio = 0.0, peak_sum = 0.0;
    bool decorated = true;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      max_cap_ratio =
          std::max(max_cap_ratio, results[i].mean_cap_w / results[i].budget_w);
      peak_sum += results[i].max_power_ratio;
      const TimedPolicy* timed = timed_of(*nodes[i]);
      if (timed == nullptr) {
        decorated = false;
        continue;
      }
      const auto& seen = timed->seen();
      const double n = static_cast<double>(seen.intervals());
      overshoot += seen.power_overshoot_fraction() * n;
      intervals += n;
      seen_completed += static_cast<double>(seen.total_completed());
    }
    const double n = static_cast<double>(nodes.size());
    out.node_epochs = static_cast<std::uint64_t>(n) *
                      static_cast<std::uint64_t>(epochs_);
    out.stats.emplace_back("peak_power_ratio", peak_sum / n);
    out.stats.emplace_back(
        "power_overshoot_frac",
        decorated && intervals > 0.0 ? overshoot / intervals : -1.0);
    out.stats.emplace_back("decorator_seen_completed",
                           decorated ? seen_completed : -1.0);
    out.stats.emplace_back("nodes", n);
    out.stats.emplace_back("epochs", epochs_);
    out.stats.emplace_back("max_cap_sum_ratio", max_cap_ratio);
    digest.add(max_cap_ratio);
    out.digest = digest.value();
    collect_decides(nodes, options_.keep_spans, out);
    return out;
  }

  std::vector<cluster::NodeReport> reports() override {
    std::vector<cluster::NodeReport> out;
    for (const auto& n : nodes_) out.push_back(n->report());
    return out;
  }
  std::vector<double> idle_w() override {
    std::vector<double> out;
    for (const auto& n : nodes_) out.push_back(n->idle_w());
    return out;
  }
  double budget_w() const override {
    double sum = 0.0;
    for (const auto& n : nodes_) sum += n->budget_w();
    return sum;
  }
  bool write_rollup(const std::string&) const override { return false; }

 private:
  int epochs_;
  EpisodeOptions options_;
  Clock::time_point origin_;
  std::vector<std::unique_ptr<cluster::ClusterNode>> nodes_;
};

// ---------------------------------------------------------------------

class FleetEpisode final : public Episode {
 public:
  FleetEpisode(std::vector<cluster::NodeSpec> specs, fleet::FleetConfig config,
               int epochs, EpisodeOptions options, Clock::time_point origin)
      : epochs_(epochs),
        options_(options),
        origin_(origin),
        sim_(std::move(specs), std::move(config)) {}

  EpisodeResult run() override {
    std::vector<cluster::ClusterNode*> nodes;
    for (int i = 0; i < sim_.num_nodes(); ++i) {
      nodes.push_back(&sim_.node(static_cast<std::size_t>(i)));
    }
    const auto predictors = distinct_predictors(nodes);
    const std::uint64_t calls0 = model_invocations(predictors);

    EpisodeResult out;
    const std::clock_t c0 = std::clock();
    const Clock::time_point t0 = Clock::now();
    result_ = sim_.run(epochs_);
    const Clock::time_point t1 = Clock::now();
    out.run_s = std::chrono::duration<double>(t1 - t0).count();
    out.cpu_s = static_cast<double>(std::clock() - c0) / CLOCKS_PER_SEC;
    out.run_start_ns = since(origin_, t0);
    out.run_end_ns = since(origin_, t1);
    out.model_calls = model_invocations(predictors) - calls0;

    const cluster::ClusterResult& c = result_.cluster;
    const fleet::FleetResult& f = result_;
    Digest digest;
    add_node_stats(nodes, c.node_results, out.stats, digest);
    out.node_epochs = static_cast<std::uint64_t>(c.nodes) *
                      static_cast<std::uint64_t>(c.epochs);
    const Stats fleet_stats = {
        {"peak_power_ratio", c.max_cluster_power_ratio},
        {"power_overshoot_frac", c.cluster_overshoot_fraction},
        {"nodes", c.nodes},
        {"epochs", c.epochs},
        {"fleet_qos_guarantee_rate", c.fleet_qos_guarantee_rate},
        {"aggregate_be_throughput", c.aggregate_be_throughput},
        {"cluster_power_budget_w", c.cluster_power_budget_w},
        {"max_cluster_power_ratio", c.max_cluster_power_ratio},
        {"mean_cluster_power_w", c.mean_cluster_power_w},
        {"max_cap_sum_ratio", c.max_cap_sum_ratio},
        {"dead_node_epochs", c.dead_node_epochs},
        {"recovery_episodes",
         static_cast<double>(c.recovery_mttr_epochs.size())},
        {"mttr_p95_epochs", c.mttr_p95_epochs},
        {"comms_sent", static_cast<double>(c.comms_sent)},
        {"comms_dropped", static_cast<double>(c.comms_dropped)},
        {"comms_delayed", static_cast<double>(c.comms_delayed)},
        {"comms_duplicated", static_cast<double>(c.comms_duplicated)},
        {"grants_sent", static_cast<double>(c.comms_grants_sent)},
        {"grants_delivered", static_cast<double>(c.comms_grants_delivered)},
        {"grants_dropped", static_cast<double>(c.comms_grants_dropped)},
        {"grants_in_flight", static_cast<double>(c.comms_grants_in_flight)},
        {"lease_renewals", static_cast<double>(c.comms_lease_renewals)},
        {"lease_expiries", static_cast<double>(c.comms_lease_expiries)},
        {"autonomy_epochs", static_cast<double>(c.comms_autonomy_epochs)},
        {"engine_skipped_node_epochs",
         static_cast<double>(f.total_skipped_epochs)},
        {"wakes", static_cast<double>(f.total_wakes)},
        {"skipped_fraction", f.skipped_fraction},
        {"events_processed", static_cast<double>(f.events_processed)},
        {"event_queue_peak", static_cast<double>(f.event_queue_peak)},
        {"cap_revisions", static_cast<double>(f.cap_revisions)},
        {"rebalances", static_cast<double>(f.rebalances)},
        {"jobs_submitted", static_cast<double>(f.jobs_submitted)},
        {"jobs_placed", static_cast<double>(f.jobs_placed)},
        {"jobs_completed", static_cast<double>(f.jobs_completed)},
        {"jobs_migrated", static_cast<double>(f.jobs_migrated)},
        {"jobs_rejected", static_cast<double>(f.jobs_rejected)},
        {"job_queue_peak", static_cast<double>(f.job_queue_peak)},
        {"mean_job_completion_epochs", f.mean_job_completion_epochs},
        {"jobs_active_at_end", static_cast<double>(f.jobs_active_at_end)},
        {"jobs_queued_at_end", static_cast<double>(f.jobs_queued_at_end)},
    };
    for (const auto& [key, value] : fleet_stats) {
      digest.add(key).add(value);
      out.stats.emplace_back(key, value);
    }
    for (const int e : c.recovery_mttr_epochs) digest.add(e);
    out.digest = digest.value();
    collect_decides(nodes, options_.keep_spans, out);
    return out;
  }

  std::vector<cluster::NodeReport> reports() override {
    std::vector<cluster::NodeReport> out;
    for (int i = 0; i < sim_.num_nodes(); ++i) {
      out.push_back(sim_.node(static_cast<std::size_t>(i)).report());
    }
    return out;
  }
  std::vector<double> idle_w() override {
    std::vector<double> out;
    for (int i = 0; i < sim_.num_nodes(); ++i) {
      out.push_back(sim_.node(static_cast<std::size_t>(i)).idle_w());
    }
    return out;
  }
  double budget_w() const override { return sim_.cluster_budget_w(); }
  bool write_rollup(const std::string& path) const override {
    return fleet::write_fleet_jsonl(result_, path);
  }

 private:
  int epochs_;
  EpisodeOptions options_;
  Clock::time_point origin_;
  fleet::FleetSim sim_;
  fleet::FleetResult result_;
};

}  // namespace

// ---------------------------------------------------------------------

bool make_shape(const std::string& name, bool tiny, WorkloadShape& out) {
  // The fleet workloads step nodes on two worker threads. With as many
  // workers as the 4-core host has cores, every epoch barrier waits on
  // whichever core another tenant takes, and the run-to-run spread of
  // the timings triples; the traced run still checks 1 and 4 threads
  // for bit-identical results.
  constexpr std::size_t kFleetThreads = 2;
  out = WorkloadShape{};
  out.name = name;
  out.tiny = tiny;
  if (name == "pairs") {
    out.kind = Kind::kPairs;
    out.nodes = tiny ? 2 : static_cast<int>(ls_catalog().size() *
                                            be_catalog().size());
    out.epochs = tiny ? 40 : 240;
    out.threads = 1;
  } else if (name == "lockstep-chaos") {
    out.kind = Kind::kLockstepChaos;
    out.nodes = tiny ? 8 : 256;
    out.epochs = tiny ? 60 : 300;
    out.threads = kFleetThreads;
  } else if (name == "diurnal-10k") {
    out.kind = Kind::kDiurnal10k;
    out.nodes = tiny ? 64 : 10000;
    out.epochs = tiny ? 80 : 400;
    out.threads = kFleetThreads;
  } else {
    return false;
  }
  return true;
}

Workload::Workload(WorkloadShape shape, std::uint64_t seed,
                   Clock::time_point origin)
    : shape_(std::move(shape)), seed_(seed), origin_(origin) {
  if (shape_.kind == Kind::kPairs) {
    if (shape_.tiny) trainer_ = fleet_trainer();  // default TrainerConfig
    return;
  }
  trainer_ = fleet_trainer();
  fleet::FleetConfig& fc = fleet_;
  cluster::ClusterConfig& cc = fc.cluster;
  cc.seed = seed_;
  cc.threads = shape_.threads;
  cc.coordinator = cluster::CoordinatorKind::kSlackHarvest;
  if (shape_.kind == Kind::kLockstepChaos) {
    const int epochs = shape_.epochs;
    cc.oversubscription = 0.90;
    // Every defense armed (chaos_demo's configuration).
    cc.resilience.sanitize_sensors = true;
    cc.resilience.watchdog.enabled = true;
    cc.resilience.heartbeat.dead_after_epochs = 3;
    // chaos_demo's standard node-fault schedule, victim node 1. Its
    // actuator burst is left out of the measured workload: at this
    // fleet size it aborts most seeds (a failed apply leaves an
    // inconsistent partition that SturgeonController::decide rejects).
    // The defect probe (--defect-probe) runs the schedule with it.
    cc.faults.enabled = true;
    cc.faults.sensor.dropout_p = 0.05;
    if (shape_.actuator_burst) {
      cc.faults.actuator.burst_start_epoch = epochs / 4;
      cc.faults.actuator.burst_epochs = 3;
      cc.faults.actuator.burst_fail_p = 0.9;
    }
    cc.faults.node.victim = 1;
    cc.faults.node.crash_epoch = epochs / 2;
    cc.faults.node.crash_epochs = 6;
    // Leased cap grants over a lossy network with one fleet-wide
    // 10-epoch partition.
    cc.comms.enabled = true;
    cc.comms.network.drop_p = 0.05;
    cc.comms.network.delay_p = 0.05;
    cc.comms.network.duplicate_p = 0.02;
    cc.comms.network.reorder_p = 0.05;
    cc.comms.network.partition_start_epoch = 2 * epochs / 3;
    cc.comms.network.partition_epochs = 10;
    cc.comms.network.partition_node = -1;
    fc.quiescence.enabled = false;
    fc.churn.enabled = false;
  } else {
    // fleet_scale's engine recipe with a 20x arrival rate, so that job
    // churn reaches a visible share of the fleet.
    cc.oversubscription = 1.0;
    cc.governor.relax_margin = 0.90;
    fc.quiescence.enabled = true;
    fc.quiescence.load_epsilon = 0.12;
    fc.quiescence.cap_headroom = 0.02;
    fc.quiescence.max_sleep_epochs = 128;
    fc.churn.enabled = true;
    fc.churn.arrival_rate_per_epoch =
        shape_.tiny ? 1.0 : 20.0;
    fc.churn.mean_size_norm_s = 30.0;
    fc.churn.slots_per_node = 4;
    fc.delta.rebalance_period = 64;
    fc.job_placement = cluster::PlacementKind::kWorstFit;
  }
}

std::vector<cluster::NodeSpec> Workload::specs(bool decorated,
                                               bool keep_spans) const {
  const auto& bes = be_catalog();
  std::vector<cluster::NodeSpec> out;
  out.reserve(static_cast<std::size_t>(shape_.nodes));
  const int n = shape_.nodes;
  if (shape_.kind == Kind::kPairs) {
    const LoadTrace ramp = LoadTrace::ramp_up_down(0.2, 0.8, shape_.epochs);
    for (const auto& ls : ls_catalog()) {
      for (const auto& be : bes) {
        if (static_cast<int>(out.size()) == n) break;
        cluster::NodeSpec spec;
        spec.ls = ls;
        spec.be = be;
        spec.trace = ramp;
        out.push_back(std::move(spec));
      }
    }
  } else if (shape_.kind == Kind::kLockstepChaos) {
    const LsProfile ls = scaled_memcached("memcached-chaos", 0.02);
    const LoadTrace day = LoadTrace::diurnal(0.2, 0.8, shape_.epochs);
    const std::uint64_t noise_seed = derive_seed(seed_, kTraceNoiseStream);
    for (int i = 0; i < n; ++i) {
      cluster::NodeSpec spec;
      spec.ls = ls;
      spec.be = bes[static_cast<std::size_t>(i) % bes.size()];
      spec.trace = day.with_noise(
          0.05, derive_seed(noise_seed, static_cast<std::uint64_t>(i)));
      out.push_back(std::move(spec));
    }
  } else {
    const LsProfile ls = scaled_memcached("memcached-fleet", 0.002);
    for (int i = 0; i < n; ++i) {
      cluster::NodeSpec spec;
      spec.ls = ls;
      spec.be = bes[static_cast<std::size_t>(i) % bes.size()];
      spec.trace = LoadTrace::diurnal_phased(
          0.18, 0.50, shape_.epochs,
          static_cast<double>(i) / static_cast<double>(n));
      out.push_back(std::move(spec));
    }
  }
  for (cluster::NodeSpec& spec : out) {
    spec.trainer = trainer_;
    if (!decorated) continue;
    spec.make_policy = [ls = spec.ls, be = spec.be, trainer = trainer_,
                        keep_spans, origin = origin_](
                           const sim::SimulatedServer& server)
        -> std::unique_ptr<core::Policy> {
      auto inner = std::make_unique<core::SturgeonController>(
          exp::predictor_for(ls, be, trainer), ls.qos_target_ms,
          server.power_budget_w());
      return std::make_unique<TimedPolicy>(
          std::move(inner), server.power_budget_w(), keep_spans, origin);
    };
  }
  return out;
}

void Workload::train() {
  exp::clear_predictor_cache();
  const auto all = specs(/*decorated=*/false, /*keep_spans=*/false);
  std::vector<std::pair<const LsProfile*, const BeProfile*>> pairs;
  std::set<std::pair<std::string, std::string>> seen;
  for (const auto& spec : all) {
    if (seen.insert({spec.ls.name, spec.be.name}).second) {
      pairs.emplace_back(&spec.ls, &spec.be);
    }
  }
  ThreadPool pool(kTrainThreads);
  exp::warm_models(pairs, &pool, trainer_);
}

std::unique_ptr<Episode> Workload::build(const EpisodeOptions& options) const {
  auto all = specs(options.decorated, options.keep_spans);
  if (shape_.kind == Kind::kPairs) {
    return std::make_unique<PairsEpisode>(std::move(all), seed_, shape_.epochs,
                                          options, origin_);
  }
  fleet::FleetConfig config = fleet_;
  config.cluster.threads = options.threads;
  return std::make_unique<FleetEpisode>(std::move(all), std::move(config),
                                        shape_.epochs, options, origin_);
}

cluster::NodeSpec Workload::probe_spec() const {
  return specs(/*decorated=*/true, /*keep_spans=*/true).front();
}

double Workload::probe_cap_fraction() const {
  return shape_.kind == Kind::kPairs ? 1.0 : fleet_.cluster.oversubscription;
}

}  // namespace perfbench
