#include "cluster/rollup.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "exp/model_registry.h"
#include "util/check.h"
#include "util/rng.h"

namespace sturgeon::cluster {

namespace {

/// p95 of a sample of episode lengths (0 for an empty sample).
double p95_epochs(std::vector<int> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t idx =
      (samples.size() * 95 + 99) / 100;  // ceil(0.95 n), 1-based
  return static_cast<double>(samples[std::min(idx, samples.size()) - 1]);
}

}  // namespace

void fill_comms_results(const comms::CommsFabric& fabric,
                        ClusterResult& result) {
  const comms::ChannelStats& s = fabric.stats();
  result.comms_sent = s.sent;
  result.comms_dropped = s.dropped;
  result.comms_delayed = s.delayed;
  result.comms_duplicated = s.duplicated;
  const comms::ChannelStats& g = fabric.grant_stats();
  result.comms_grants_sent = g.sent;
  result.comms_grants_delivered = g.delivered;
  result.comms_grants_dropped = g.dropped;
  result.comms_grants_in_flight = g.in_flight();
  result.comms_lease_renewals = fabric.lease_renewals();
  result.comms_lease_expiries = fabric.lease_expiries();
  result.comms_autonomy_epochs = fabric.autonomy_epochs();
  for (std::size_t i = 0; i < result.node_results.size(); ++i) {
    const comms::LeaseClient& client = fabric.client(static_cast<int>(i));
    result.node_results[i].lease_renewals = client.renewals();
    result.node_results[i].lease_expiries = client.expiries();
    result.node_results[i].autonomy_epochs = client.autonomy_epochs();
    result.node_results[i].last_autonomy_epoch = client.last_autonomy_epoch();
  }
}

ClusterBuild build_cluster(std::vector<NodeSpec> specs,
                           const ClusterConfig& config, ThreadPool& pool) {
  if (specs.empty()) {
    throw std::invalid_argument("build_cluster: empty fleet");
  }
  if (!(config.oversubscription > 0.0 && config.oversubscription <= 1.0)) {
    throw std::invalid_argument(
        "build_cluster: oversubscription must be (0,1]");
  }
  const std::size_t n = specs.size();

  ClusterBuild build;
  build.telemetry =
      config.telemetry
          ? config.telemetry
          : telemetry::TelemetryContext::make(specs[0].server.machine);

  // Warm every distinct Sturgeon model before any node constructs its
  // policy: parallel across distinct services, train-once per service.
  std::vector<std::pair<const LsProfile*, const BeProfile*>> to_warm;
  const core::TrainerConfig* trainer = nullptr;
  for (const auto& spec : specs) {
    if (!spec.make_policy) {
      to_warm.emplace_back(&spec.ls, &spec.be);
      trainer = &spec.trainer;
    }
  }
  if (!to_warm.empty()) {
    exp::warm_models(to_warm, &pool, *trainer);
  }

  build.nodes.reserve(n);
  double budget_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    NodeSpec spec = std::move(specs[i]);
    build.max_trace_s = std::max(build.max_trace_s, spec.trace.duration_s());
    auto ctx = telemetry::TelemetryContext::make(
        spec.server.machine, telemetry::TelemetryConfig{
                                 config.node_tracing, false, "", "",
                                 build.telemetry->config().clock});
    build.nodes.push_back(std::make_unique<ClusterNode>(
        static_cast<int>(i), std::move(spec),
        derive_seed(config.seed, static_cast<std::uint64_t>(i)),
        std::move(ctx), config.governor, config.resilience,
        config.faults.for_node(static_cast<int>(i))));
    budget_sum += build.nodes.back()->budget_w();
  }

  build.budget_w = config.power_budget_w > 0.0
                       ? config.power_budget_w
                       : config.oversubscription * budget_sum;
  double idle_sum = 0.0;
  for (const auto& node : build.nodes) idle_sum += node->idle_w();
  STURGEON_CHECK(build.budget_w > idle_sum,
                 "build_cluster: cluster budget " << build.budget_w
                     << " W below fleet idle power " << idle_sum << " W");

  auto& registry = build.telemetry->metrics();
  registry.gauge("cluster.nodes").set(static_cast<double>(n));
  registry.gauge("cluster.power_budget_w").set(build.budget_w);
  return build;
}

ClusterRollup::ClusterRollup(telemetry::TelemetryContext& telemetry,
                             double budget_w)
    : telemetry_(telemetry), budget_w_(budget_w) {
  auto& registry = telemetry_.metrics();
  power_hist_ = &registry.histogram(
      "cluster.power_w", telemetry::Histogram::exponential_bounds(
                             budget_w_ / 64.0, 1.25, 24));
  epoch_counter_ = &registry.counter("cluster.epochs");
  overshoot_counter_ = &registry.counter("cluster.overshoot_epochs");
  power_gauge_ = &registry.gauge("cluster.power_w.last");
  dead_gauge_ = &registry.gauge("cluster.dead_nodes");
  ls_qos_gauge_ = &registry.gauge("cluster.slices.ls_qos_fraction");
  be_norm_gauge_ = &registry.gauge("cluster.slices.be_throughput_norm");
  dead_epochs_counter_ = &registry.counter("fault.node.dead_epochs");
}

void ClusterRollup::begin_epoch() { epoch_counter_->inc(); }

void ClusterRollup::note_dead(int dead_nodes) {
  dead_gauge_->set(static_cast<double>(dead_nodes));
  if (dead_nodes > 0) {
    dead_node_epochs_ += dead_nodes;
    dead_epochs_counter_->add(static_cast<std::uint64_t>(dead_nodes));
  }
}

void ClusterRollup::note_cap_sum(double cap_sum_w, int t) {
  STURGEON_CHECK(cap_sum_w <= budget_w_ * (1.0 + 1e-9) + 1e-6,
                 "ClusterRollup::note_cap_sum: coordinator oversubscribed "
                 "the budget ("
                     << cap_sum_w << " W > " << budget_w_ << " W at t=" << t
                     << ")");
  max_cap_sum_ratio_ = std::max(max_cap_sum_ratio_, cap_sum_w / budget_w_);
}

void ClusterRollup::note_power(double fleet_power_w) {
  power_hist_->observe(fleet_power_w);
  power_gauge_->set(fleet_power_w);
  power_sum_ += fleet_power_w;
  max_ratio_ = std::max(max_ratio_, fleet_power_w / budget_w_);
  if (fleet_power_w > budget_w_) {
    ++overshoot_epochs_;
    overshoot_counter_->inc();
  }
}

void ClusterRollup::note_slices(int ls_total, int ls_met,
                                double be_norm_sum) {
  ls_qos_gauge_->set(ls_total == 0 ? 1.0
                                   : static_cast<double>(ls_met) /
                                         static_cast<double>(ls_total));
  be_norm_gauge_->set(be_norm_sum);
}

ClusterResult ClusterRollup::finalize(
    int epochs, const std::string& coordinator_name,
    const std::vector<std::unique_ptr<ClusterNode>>& nodes,
    const HeartbeatTracker& heartbeat,
    std::shared_ptr<telemetry::TelemetryContext> telemetry) {
  const std::size_t n = nodes.size();
  auto& registry = telemetry_.metrics();

  ClusterResult result;
  result.cluster_power_budget_w = budget_w_;
  result.epochs = epochs;
  result.nodes = static_cast<int>(n);
  result.coordinator = coordinator_name;
  result.telemetry = std::move(telemetry);

  std::uint64_t completed = 0, violations = 0;
  result.node_results.reserve(n);
  for (const auto& node : nodes) {
    NodeResult nr = node->result();
    completed += nr.total_completed;
    violations += nr.total_violations;
    result.aggregate_be_throughput += nr.mean_be_throughput_norm;
    result.node_results.push_back(std::move(nr));
  }
  result.fleet_qos_guarantee_rate =
      completed == 0 ? 1.0
                     : static_cast<double>(completed - violations) /
                           static_cast<double>(completed);
  result.cluster_overshoot_fraction =
      epochs == 0 ? 0.0
                  : static_cast<double>(overshoot_epochs_) /
                        static_cast<double>(epochs);
  result.max_cluster_power_ratio = max_ratio_;
  result.mean_cluster_power_w =
      epochs == 0 ? 0.0 : power_sum_ / static_cast<double>(epochs);
  result.max_cap_sum_ratio = max_cap_sum_ratio_;
  result.dead_node_epochs = dead_node_epochs_;

  // Recovery accounting: heartbeat outages (declared-dead to rejoin)
  // plus each node's completed watchdog safe-mode episodes, merged into
  // one MTTR sample. Sequential in node order, so deterministic.
  result.recovery_mttr_epochs = heartbeat.completed_outages();
  for (const NodeResult& nr : result.node_results) {
    result.recovery_mttr_epochs.insert(result.recovery_mttr_epochs.end(),
                                       nr.safe_mode_episodes.begin(),
                                       nr.safe_mode_episodes.end());
  }
  result.mttr_p95_epochs = p95_epochs(result.recovery_mttr_epochs);
  auto& mttr_hist = registry.histogram(
      "recovery.mttr_epochs", telemetry::Histogram::exponential_bounds(
                                  1.0, 2.0, 10));
  for (const int e : result.recovery_mttr_epochs) {
    mttr_hist.observe(static_cast<double>(e));
  }
  registry.gauge("recovery.mttr_p95_epochs").set(result.mttr_p95_epochs);
  registry.gauge("cluster.max_cap_sum_ratio").set(max_cap_sum_ratio_);

  // Roll the per-node counters up into the cluster registry ("fleet."
  // prefix) so one snapshot answers fleet-wide questions; gauges and
  // histograms stay node-local (summing them is not meaningful). Sum per
  // name first, so each fleet counter is looked up once.
  std::map<std::string, std::uint64_t, std::less<>> sums;
  for (const NodeResult& nr : result.node_results) {
    nr.telemetry->metrics().for_each_counter(
        [&sums](std::string_view name, std::uint64_t value) {
          auto it = sums.find(name);
          if (it == sums.end()) it = sums.emplace(name, 0).first;
          it->second += value;
        });
  }
  for (const auto& [name, sum] : sums) {
    registry.counter("fleet." + name).add(sum);
  }
  registry.gauge("cluster.fleet_qos_guarantee_rate")
      .set(result.fleet_qos_guarantee_rate);
  registry.gauge("cluster.aggregate_be_throughput")
      .set(result.aggregate_be_throughput);
  registry.gauge("cluster.overshoot_fraction")
      .set(result.cluster_overshoot_fraction);
  registry.gauge("cluster.max_power_ratio").set(result.max_cluster_power_ratio);
  registry.gauge("cluster.mean_power_w").set(result.mean_cluster_power_w);

  for (const NodeResult& nr : result.node_results) nr.telemetry->flush();
  telemetry_.flush();
  return result;
}

}  // namespace sturgeon::cluster
