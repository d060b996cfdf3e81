#include "fleet/fleet.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace sturgeon::fleet {

using cluster::ClusterRollup;
using cluster::NodeReport;

namespace {

/// Minimum QoS slack (fraction of the target) required to sleep --
/// nodes near their latency target keep stepping so the governor can
/// react every epoch.
constexpr double kSleepMinSlack = 0.05;

}  // namespace

FleetSim::FleetSim(std::vector<cluster::NodeSpec> specs, FleetConfig config)
    : config_(std::move(config)),
      heartbeat_(std::max<std::size_t>(specs.size(), 1),
                 config_.cluster.resilience.heartbeat),
      pool_(config_.cluster.threads),
      churn_(config_.churn, config_.cluster.seed, specs.size(), specs.size()),
      placer_(config_.job_placement,
              static_cast<int>(std::max<std::size_t>(specs.size(), 1)),
              config_.churn.slots_per_node) {
  cluster::ClusterBuild build =
      cluster::build_cluster(std::move(specs), config_.cluster, pool_);
  telemetry_ = std::move(build.telemetry);
  nodes_ = std::move(build.nodes);
  budget_w_ = build.budget_w;
  max_trace_s_ = build.max_trace_s;
  coordinator_ = cluster::make_coordinator(config_.cluster.coordinator,
                                           config_.cluster.coordinator_config);
  const std::size_t n = nodes_.size();
  delta_ = std::make_unique<DeltaCoordinator>(config_.delta, budget_w_, n);
  ctl_.resize(n);
  reports_.resize(n);
  last_steps_.assign(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    // Fault timelines must advance every epoch; armed nodes never sleep.
    ctl_[i].never_sleep = nodes_[i]->has_fault_injector();
    // Under churn the job population IS the best-effort work: nodes
    // start LS-only and activate their BE slice when the first job
    // lands. Without churn the static pair stays active.
    if (config_.churn.enabled) nodes_[i]->set_be_active(false);
  }
}

FleetResult FleetSim::run(int epochs) {
  if (ran_) {
    throw std::logic_error("FleetSim::run: one-shot; build a new sim");
  }
  ran_ = true;
  if (epochs <= 0) epochs = max_trace_s_;
  const std::size_t n = nodes_.size();
  const bool skipping = config_.quiescence.enabled;

  // Seed the persistent report vector from the nodes' pre-step state so
  // the t=0 split sees real budgets; afterwards a node's entry refreshes
  // only when it steps.
  for (std::size_t i = 0; i < n; ++i) reports_[i] = nodes_[i]->report();
  // Messages cross the channel only on a network that can fault; a
  // zero-fault network delivers every grant and report in its epoch,
  // which is the direct path.
  if (config_.cluster.comms.enabled && config_.cluster.comms.network.any()) {
    std::vector<double> idle(n);
    for (std::size_t i = 0; i < n; ++i) idle[i] = reports_[i].idle_w;
    fabric_ = std::make_unique<comms::CommsFabric>(
        config_.cluster.comms,
        derive_seed(config_.cluster.seed, comms::kCommsStream), budget_w_,
        reports_, std::move(idle));
    dead_nodes_.assign(n, false);
    caps_.assign(n, 0.0);
  }

  ClusterRollup rollup(*telemetry_, budget_w_);
  coordinator_->reset();
  heartbeat_.reset();

  auto& registry = telemetry_->metrics();
  telemetry::Counter& skipped_counter =
      registry.counter("fleet.skipped_epochs.live");
  telemetry::Gauge& depth_gauge = registry.gauge("fleet.event_queue.depth");
  telemetry::Gauge& woken_gauge = registry.gauge("fleet.woken_nodes");

  // Seed the fleet-level event streams: the first churn arrival and,
  // with skipping on, the initial (t=0) full budget split; every later
  // rebalance reschedules itself rebalance_period epochs ahead.
  if (skipping) queue_.push(EventKind::kRebalance, 0, -1);
  if (config_.churn.enabled) {
    const int first = churn_.next_arrival_epoch();
    if (first >= 0 && first < epochs) {
      queue_.push(EventKind::kJobArrival, first, -1);
    }
  }

  for (int t = 0; t < epochs; ++t) {
    telemetry::Span span = telemetry_->tracer().start_span("cluster.epoch");
    span.attr("t_s", t);
    rollup.begin_epoch();

    // Phase 1: drain events due at t (pop order: (time, node, seq)).
    // Wakes mark nodes steppable; arrivals may place jobs onto sleeping
    // nodes, which wakes them too (the host must re-partition).
    bool rebalance_due = false;
    while (queue_.has_due(t)) {
      const FleetEvent e = queue_.pop();
      ++events_processed_;
      switch (e.kind) {
        case EventKind::kJobArrival: {
          for (std::uint64_t id : churn_.arrive(t)) route_job(id, t);
          const int next = churn_.next_arrival_epoch();
          if (next >= 0 && next < epochs) {
            queue_.push(EventKind::kJobArrival, next, -1);
          }
          break;
        }
        case EventKind::kRebalance: {
          rebalance_due = true;
          ++rebalances_;
          if (config_.delta.rebalance_period > 0 &&
              t + config_.delta.rebalance_period < epochs) {
            queue_.push(EventKind::kRebalance,
                        t + config_.delta.rebalance_period, -1);
          }
          break;
        }
        case EventKind::kWake:
        case EventKind::kJobFinish:
        case EventKind::kCapChange:
          wake_node(static_cast<std::size_t>(e.node), t);
          break;
      }
    }

    // Phase 2: heartbeat over the whole fleet. A node that stopped
    // stepping is declared dead after dead_after_epochs of silence and
    // its cap collapses to the idle floor inside the coordinator.
    // Scheduled sleepers beat virtually (they are healthy by
    // construction -- only nodes without fault injectors may sleep); a
    // crashed node stops beating for real because it never becomes
    // eligible to sleep. In comms mode both signals cross the wire
    // instead: the coordinator sees what the wire delivered (stale
    // reports freeze, lost reports look like death), stepped nodes sent
    // reports, sleepers sent firmware heartbeats (end of phase 5), and
    // the tracker reads whatever actually arrived.
    int dead = 0;
    if (fabric_) {
      fabric_->collect(t);
      reports_ = fabric_->reports();
      dead = heartbeat_.update(t, fabric_->last_report_epochs(), reports_,
                               fabric_->lease_lapsed());
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        // A node woken in phase 1 of this very epoch was asleep through
        // t-1 and gets the same virtual beat: its real last_step_epoch
        // is stale pre-sleep history, not a missed heartbeat.
        last_steps_[i] = ctl_[i].sleeping || ctl_[i].woke_at == t
                             ? t - 1
                             : nodes_[i]->last_step_epoch();
      }
      dead = heartbeat_.update(t, last_steps_, reports_);
    }
    rollup.note_dead(dead);

    // Phase 3: caps (sequential, deterministic in node order). A full
    // split runs the coordinator's strategy over the persistent report
    // vector and rebases the delta state: every epoch with skipping off,
    // on kRebalance epochs with it on. Other epochs revise only the
    // awake nodes, O(#awake). In comms mode each node obeys its lease
    // (or the autonomous fallback), never the coordinator's wish
    // directly, and the budget check runs over those true caps.
    const bool full_split = !skipping || rebalance_due;
    if (full_split) {
      const std::vector<double> caps =
          coordinator_->assign(budget_w_, reports_);
      delta_->rebase(caps);
      if (fabric_) {
        caps_ = caps;  // desired; what binds each node is its lease
      } else {
        for (std::size_t i = 0; i < n; ++i) recap(i, caps[i], t);
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        if (ctl_[i].sleeping) continue;
        const double revised = delta_->revise(i, reports_[i]);
        if (fabric_) {
          caps_[i] = revised;
        } else {
          nodes_[i]->set_power_cap(revised);
        }
      }
    }
    if (fabric_) {
      // Every node takes its effective cap every epoch, so a lapse can
      // wake a sleeper; the TRUE cap sum is the safety claim.
      for (std::size_t i = 0; i < n; ++i) dead_nodes_[i] = reports_[i].dead();
      fabric_->send_grants(caps_, dead_nodes_, t);
      const std::vector<double>& eff = fabric_->effective_caps(t);
      double cap_sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        cap_sum += eff[i];
        recap(i, eff[i], t);
      }
      rollup.note_cap_sum(cap_sum, t);
    } else {
      rollup.note_cap_sum(delta_->cap_sum(), t);
    }

    // Phase 4: step the awake set in parallel (fleet order; nodes share
    // no mutable state, so the schedule cannot change results).
    woken_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (!ctl_[i].sleeping) woken_.push_back(i);
    }
    pool_.parallel_for(woken_.size(),
                       [&](std::size_t k) { nodes_[woken_[k]]->step(t); });

    // Phase 5: sequential post-step over the awake set, fleet order:
    // record fresh contributions, drain churn jobs, decide who sleeps
    // next.
    for (std::size_t i : woken_) {
      const NodeReport& r = nodes_[i]->report();
      record_contrib(i, r, nodes_[i]->true_power_w());
      reports_[i] = r;
      // Comms mode: a report reaches the coordinator only as a message,
      // sent after a completed healthy step (crashed/hung nodes go
      // silent for real -- that is what the heartbeat sees next epoch).
      // The engine-local reports_[i] above still feeds this epoch's
      // churn and sleep decisions -- those are node-local control, not
      // coordinator state; the coordinator's copy refreshes from the
      // fabric next epoch.
      if (fabric_ && nodes_[i]->last_step_epoch() == t) {
        fabric_->send_report(static_cast<int>(i), r, t, t);
      }
      if (config_.churn.enabled) churn_post_step(i, t);
      if (skipping) maybe_sleep(i, t);
    }
    // Scheduled sleepers are healthy by construction: their firmware
    // keeps beating so the coordinator does not declare them dead
    // (nodes that slept THROUGH t, not ones that just decided to sleep
    // from t+1 -- those sent a report above).
    if (fabric_) {
      for (std::size_t i = 0; i < n; ++i) {
        if (ctl_[i].sleeping && ctl_[i].sleep_from <= t) {
          fabric_->send_heartbeat(static_cast<int>(i), t);
        }
      }
    }

    // Fleet aggregation, summed in node order over every node's latest
    // contribution (a sleeper's stays frozen at its last step), over
    // ground-truth power: a sensor fault may lie to the coordinator, but
    // the budget verdict is about watts actually drawn.
    double fleet_power = 0.0, be_norm_sum = 0.0;
    int ls_total = 0, ls_met = 0;
    for (const NodeCtl& c : ctl_) {
      fleet_power += c.power_w;
      ls_total += c.ls;
      ls_met += c.ls_met;
      be_norm_sum += c.be_norm;
    }
    rollup.note_power(fleet_power);
    rollup.note_slices(ls_total, ls_met, be_norm_sum);

    skipped_counter.add(static_cast<std::uint64_t>(n - woken_.size()));
    depth_gauge.set(static_cast<double>(queue_.size()));
    woken_gauge.set(static_cast<double>(woken_.size()));
    span.attr("power_w", fleet_power).attr("dead_nodes", dead);
  }

  // Settle nodes still asleep at the end of the run so the per-node
  // invariant (stepped + skipped == run epochs) holds; no wake is
  // counted (nothing woke them, the run ended).
  for (std::size_t i = 0; i < n; ++i) {
    if (!ctl_[i].sleeping) continue;
    ctl_[i].skipped += epochs - ctl_[i].sleep_from;
    if (config_.churn.enabled) {
      handle_completions(static_cast<int>(i),
                         churn_.accrue(static_cast<int>(i),
                                       ctl_[i].frozen_rate,
                                       ctl_[i].sleep_from, epochs - 1),
                         epochs - 1);
    }
    ctl_[i].sleeping = false;
  }

  return finish(rollup, epochs);
}

double FleetSim::be_rate(const NodeReport& report) {
  double sum = 0.0;
  for (const cluster::SliceReport& s : report.slices) {
    if (!s.latency_sensitive) sum += s.throughput_norm;
  }
  return sum;
}

void FleetSim::recap(std::size_t i, double cap_w, int t) {
  nodes_[i]->set_power_cap(cap_w);
  if (ctl_[i].sleeping && cap_w < ctl_[i].power_w) {
    ++events_processed_;
    wake_node(i, t);
  }
}

void FleetSim::wake_node(std::size_t i, int t) {
  NodeCtl& c = ctl_[i];
  if (!c.sleeping) return;  // stale event for an already-woken node
  c.sleeping = false;
  c.woke_at = t;
  ++c.wakes;
  const int skipped = t - c.sleep_from;  // epochs sleep_from .. t-1
  c.skipped += skipped;
  if (config_.churn.enabled && skipped > 0) {
    // Drain the sleep window at the frozen rate. By construction the
    // scheduled job-finish wake lands before any completion epoch, so
    // this normally completes nothing; handled anyway for external
    // wakes racing a nearly-done job.
    handle_completions(
        static_cast<int>(i),
        churn_.accrue(static_cast<int>(i), c.frozen_rate, c.sleep_from,
                      t - 1),
        t - 1);
  }
}

void FleetSim::route_job(std::uint64_t id, int t) {
  const int to = placer_.pick();
  if (to >= 0) {
    placer_.claim(to);
    churn_.assign(id, to, t);
    nodes_[static_cast<std::size_t>(to)]->set_be_active(true);
    // Pre-step phase: a sleeping host wakes and steps this very epoch.
    wake_node(static_cast<std::size_t>(to), t);
  } else if (config_.churn.queue_when_full) {
    churn_.enqueue(id);
  } else {
    churn_.reject(id);
  }
}

void FleetSim::churn_post_step(std::size_t i, int t) {
  const int node = static_cast<int>(i);
  if (churn_.active_on(node).empty()) return;
  const NodeReport& r = reports_[i];
  handle_completions(node, churn_.accrue(node, be_rate(r), t, t), t);

  NodeCtl& c = ctl_[i];
  if (config_.churn.migrate_after_epochs <= 0 ||
      churn_.active_on(node).empty()) {
    c.bad_streak = 0;
    return;
  }
  // Sustained QoS violation or cap pressure (governor actively
  // throttling) evicts the newest job to the best other host.
  const bool pressure = !r.qos_met || nodes_[i]->governor_throttle() > 0;
  c.bad_streak = pressure ? c.bad_streak + 1 : 0;
  if (c.bad_streak < config_.churn.migrate_after_epochs) return;
  c.bad_streak = 0;
  const int to = placer_.pick(node);
  if (to < 0) return;  // nowhere to go; stay and retry next streak
  const std::uint64_t id = churn_.active_on(node).back();
  placer_.release(node);
  placer_.claim(to);
  churn_.migrate(id, to, t);
  nodes_[static_cast<std::size_t>(to)]->set_be_active(true);
  if (churn_.active_on(node).empty()) nodes_[i]->set_be_active(false);
  if (ctl_[static_cast<std::size_t>(to)].sleeping) {
    // Post-step phase: the target steps again no earlier than t+1.
    queue_.push(EventKind::kWake, t + 1, to);
  }
}

void FleetSim::handle_completions(int node,
                                  const std::vector<std::uint64_t>& done,
                                  int t) {
  if (done.empty()) return;
  for (std::size_t k = 0; k < done.size(); ++k) placer_.release(node);
  // Freed slots admit queued jobs FIFO; the placer decides the host
  // (often this node, possibly a better one that freed up earlier).
  while (churn_.has_queued()) {
    const int to = placer_.pick();
    if (to < 0) break;
    const std::uint64_t id = churn_.pop_queued();
    placer_.claim(to);
    churn_.assign(id, to, t);
    nodes_[static_cast<std::size_t>(to)]->set_be_active(true);
    if (ctl_[static_cast<std::size_t>(to)].sleeping) {
      queue_.push(EventKind::kWake, t + 1, to);
    }
  }
  if (churn_.active_on(node).empty()) {
    nodes_[static_cast<std::size_t>(node)]->set_be_active(false);
  }
}

void FleetSim::maybe_sleep(std::size_t i, int t) {
  const QuiescenceConfig& q = config_.quiescence;
  NodeCtl& c = ctl_[i];
  if (c.never_sleep) return;
  cluster::ClusterNode& node = *nodes_[i];
  const NodeReport& r = reports_[i];
  // Only a node whose controller is at a fixed point may sleep: alive
  // and reporting, QoS met with slack in band, governor quiet, not in
  // safe mode, comfortably under its cap.
  if (!r.alive() || !r.qos_met) return;
  if (r.slack < kSleepMinSlack) return;
  // Governor: quiet (no levels confiscated) or holding a constant
  // nonzero level under the relax hysteresis -- both are part of the
  // node's fixed point. A *moving* nonzero level is active cap
  // enforcement and blocks sleep.
  const int throttle = node.governor_throttle();
  const bool throttle_quiet = throttle == 0 || throttle == c.last_throttle;
  c.last_throttle = throttle;
  if (!throttle_quiet || node.in_safe_mode()) return;
  if (r.power_w > (1.0 - q.cap_headroom) * node.power_cap_w()) return;
  const double rate = be_rate(r);
  const bool has_jobs =
      config_.churn.enabled && !churn_.active_on(static_cast<int>(i)).empty();
  if (has_jobs && rate <= 0.0) return;  // starved jobs need live control

  int wake = next_load_shift(node.trace(), t, q.load_epsilon,
                             q.max_sleep_epochs);
  EventKind kind = EventKind::kWake;
  if (has_jobs) {
    const int finish =
        churn_.earliest_finish(static_cast<int>(i), rate, t);
    if (finish >= 0 && finish < wake) {
      wake = finish;
      kind = EventKind::kJobFinish;
    }
  }
  if (wake - (t + 1) < q.min_sleep_epochs) return;
  c.sleeping = true;
  c.sleep_from = t + 1;
  c.frozen_rate = rate;
  queue_.push(kind, wake, static_cast<int>(i));
}

void FleetSim::record_contrib(std::size_t i, const NodeReport& report,
                              double true_power_w) {
  NodeCtl& c = ctl_[i];
  c.power_w = true_power_w;
  c.ls = 0;
  c.ls_met = 0;
  for (const cluster::SliceReport& s : report.slices) {
    if (!s.latency_sensitive) continue;
    ++c.ls;
    if (s.qos_met) ++c.ls_met;
  }
  c.be_norm = be_rate(report);
}

FleetResult FleetSim::finish(ClusterRollup& rollup, int epochs) {
  const std::size_t n = nodes_.size();
  std::uint64_t total_skipped = 0, total_wakes = 0;
  for (const NodeCtl& c : ctl_) {
    total_skipped += static_cast<std::uint64_t>(c.skipped);
    total_wakes += static_cast<std::uint64_t>(c.wakes);
  }

  // Engine + churn roll-up into the cluster registry before finalize
  // flushes it (satellites export these through the fleet JSONL).
  auto& registry = telemetry_->metrics();
  registry.counter("fleet.skipped_epochs").add(total_skipped);
  registry.counter("fleet.wakes").add(total_wakes);
  registry.counter("fleet.events").add(events_processed_);
  registry.gauge("fleet.event_queue.depth_peak")
      .set(static_cast<double>(queue_.max_depth()));
  const ChurnStats& cs = churn_.stats();
  registry.counter("fleet.churn.submitted").add(cs.submitted);
  registry.counter("fleet.churn.placed").add(cs.placed);
  registry.counter("fleet.churn.completed").add(cs.completed);
  registry.counter("fleet.churn.migrated").add(cs.migrated);
  registry.counter("fleet.churn.rejected").add(cs.rejected);
  registry.gauge("fleet.churn.queue_peak")
      .set(static_cast<double>(cs.queue_peak));
  registry.gauge("fleet.churn.active_at_end")
      .set(static_cast<double>(churn_.active_total()));
  if (fabric_) fabric_->export_metrics(registry);

  FleetResult out;
  out.cluster = rollup.finalize(epochs, coordinator_->name(), nodes_,
                                heartbeat_, telemetry_);
  if (fabric_) cluster::fill_comms_results(*fabric_, out.cluster);
  for (std::size_t i = 0; i < n; ++i) {
    out.cluster.node_results[i].skipped_epochs = ctl_[i].skipped;
    out.cluster.node_results[i].wakes = ctl_[i].wakes;
  }
  out.total_skipped_epochs = total_skipped;
  out.total_wakes = total_wakes;
  out.skipped_fraction =
      (n == 0 || epochs == 0)
          ? 0.0
          : static_cast<double>(total_skipped) /
                (static_cast<double>(n) * static_cast<double>(epochs));
  out.events_processed = events_processed_;
  out.event_queue_peak = queue_.max_depth();
  out.cap_revisions = delta_->revisions();
  out.rebalances = rebalances_;
  out.jobs_submitted = cs.submitted;
  out.jobs_placed = cs.placed;
  out.jobs_completed = cs.completed;
  out.jobs_migrated = cs.migrated;
  out.jobs_rejected = cs.rejected;
  out.job_queue_peak = cs.queue_peak;
  out.mean_job_completion_epochs = churn_.mean_completion_epochs();
  out.jobs_active_at_end = churn_.active_total();
  out.jobs_queued_at_end = churn_.queued();
  return out;
}

}  // namespace sturgeon::fleet
