#include "comms/fabric.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "telemetry/metrics.h"
#include "util/check.h"

namespace sturgeon::comms {

namespace {

constexpr std::uint64_t kRetryJitterFork = 0x7E;
/// A lease within this many watts of the coordinator's desired cap
/// counts as settled (no re-send).
constexpr double kGrantEpsilonW = 1e-6;
/// Bounded-exponential re-send backoff on the virtual epoch clock: the
/// first re-send waits this many epochs, and each later one doubles it
/// up to retry_max_epochs.
constexpr int kRetryBaseEpochs = 1;
/// Deterministic jitter fraction on the backoff (0 = none, 1 = the
/// delay is scaled by a seeded uniform draw from [0.5, 1.5)).
constexpr double kRetryJitter = 0.5;

}  // namespace

CommsFabric::CommsFabric(const CommsConfig& config, std::uint64_t seed,
                         double budget_w,
                         std::vector<cluster::NodeReport> initial_reports,
                         std::vector<double> idle_w)
    : config_(config),
      channel_(config.network, seed,
               static_cast<int>(initial_reports.size())),
      ledger_(autonomous_split(budget_w, idle_w), budget_w),
      idle_w_(std::move(idle_w)),
      reports_(std::move(initial_reports)) {
  STURGEON_CHECK(!reports_.empty(), "CommsFabric: empty fleet");
  STURGEON_CHECK(reports_.size() == idle_w_.size(),
                 "CommsFabric: reports/idle size mismatch");
  if (config_.lease_epochs < 1 || config_.renew_ahead_epochs < 0 ||
      config_.renew_ahead_epochs >= config_.lease_epochs ||
      config_.retry_max_epochs < kRetryBaseEpochs) {
    throw std::invalid_argument("CommsFabric: bad comms configuration");
  }
  const std::size_t n = reports_.size();
  clients_.reserve(n);
  retry_rng_.reserve(n);
  const Rng jitter_root = Rng(derive_seed(seed, kRetryJitterFork));
  for (std::size_t i = 0; i < n; ++i) {
    clients_.emplace_back(ledger_.autonomous_w(static_cast<int>(i)));
    retry_rng_.push_back(jitter_root.fork(static_cast<std::uint64_t>(i)));
  }
  last_report_epochs_.assign(n, -1);
  lease_lapsed_.assign(n, false);
  report_seq_seen_.assign(n, 0);
  report_seq_next_.assign(n, 0);
  autonomy_seen_.assign(n, 0);
  attempts_.assign(n, 0);
  next_retry_.assign(n, 0);
  effective_.assign(n, 0.0);
}

void CommsFabric::handle_ack(int node, std::uint64_t ack_seq) {
  if (ledger_.on_ack(node, ack_seq)) {
    const auto i = static_cast<std::size_t>(node);
    attempts_[i] = 0;  // progress: restart the backoff ladder
    next_retry_[i] = 0;
  }
}

void CommsFabric::note_autonomy(int node, std::uint64_t autonomy_epochs) {
  const auto i = static_cast<std::size_t>(node);
  if (autonomy_epochs > autonomy_seen_[i]) {
    lease_lapsed_[i] = true;
    autonomy_seen_[i] = autonomy_epochs;
  }
}

void CommsFabric::collect(int t) {
  std::fill(lease_lapsed_.begin(), lease_lapsed_.end(), false);
  for (const Message& m : channel_.recv_coord(t)) {
    switch (m.kind) {
      case MsgKind::kNodeReport: {
        const int node = m.report.node;
        handle_ack(node, m.report.ack_seq);
        note_autonomy(node, m.report.autonomy_epochs);
        const auto i = static_cast<std::size_t>(node);
        if (m.report.seq > report_seq_seen_[i]) {
          report_seq_seen_[i] = m.report.seq;
          reports_[i] = m.report.report;
          last_report_epochs_[i] =
              std::max(last_report_epochs_[i], m.report.last_step_epoch);
        } else {
          ++stale_reports_;  // delayed/reordered behind a newer report
        }
        break;
      }
      case MsgKind::kHeartbeat: {
        const int node = m.beat.node;
        handle_ack(node, m.beat.ack_seq);
        note_autonomy(node, m.beat.autonomy_epochs);
        const auto i = static_cast<std::size_t>(node);
        last_report_epochs_[i] = std::max(last_report_epochs_[i], m.beat.epoch);
        break;
      }
      case MsgKind::kCapGrant:
        STURGEON_CHECK(false, "CommsFabric: cap grant on the up link");
    }
  }
}

void CommsFabric::send_grants(const std::vector<double>& desired_w,
                              const std::vector<bool>& dead, int t) {
  const int n = nodes();
  STURGEON_CHECK(static_cast<int>(desired_w.size()) == n &&
                     static_cast<int>(dead.size()) == n,
                 "CommsFabric::send_grants: fleet size mismatch");
  ledger_.prune(t);
  // Term-aligned expiry; inside the renewal window grants are already
  // stamped for the next term (a grant that dies in renew_ahead epochs
  // is not worth the ack round trip).
  const int term = config_.lease_epochs;
  int expiry = ((t / term) + 1) * term;
  if (expiry - t <= config_.renew_ahead_epochs) expiry += term;
  // Two passes, node order inside each: modest asks (at or below the
  // autonomous fallback) first. They tighten no budget scenario the
  // fallback did not already reserve, so sending them first leaves the
  // clamp maximal room for the above-average asks.
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < n; ++i) {
      const bool modest =
          desired_w[i] <= ledger_.autonomous_w(i) + kGrantEpsilonW;
      if (modest != (pass == 0)) continue;
      if (dead[static_cast<std::size_t>(i)]) continue;
      maybe_grant(i, desired_w[i], expiry, t);
    }
  }
}

void CommsFabric::maybe_grant(int node, double desired_w, int expiry_epoch,
                              int t) {
  const auto i = static_cast<std::size_t>(node);
  const LeaseCandidate& acked = ledger_.acked(node);
  const double eps = kGrantEpsilonW;
  const bool settled = acked.seq != 0 &&
                       std::abs(acked.cap_w - desired_w) <= eps &&
                       acked.expiry_epoch - t > config_.renew_ahead_epochs;
  if (settled) {
    attempts_[i] = 0;  // a future desired change starts a fresh ladder
    next_retry_[i] = t;
    return;
  }
  if (t < next_retry_[i]) return;  // backing off an unacked send
  const double room = ledger_.max_grant(node, expiry_epoch, t);
  const double cap = std::min(desired_w, room);
  // A cap below idle is not actionable and below the autonomous
  // fallback it is not an improvement either; stay clamp-blocked and
  // re-evaluate next epoch (acks free room without our help, so this
  // is not a retransmit and takes no backoff).
  if (cap < idle_w_[i] || cap + eps < std::min(desired_w, ledger_.autonomous_w(node))) {
    return;
  }
  if (acked.seq != 0 && std::abs(acked.cap_w - cap) <= eps &&
      acked.expiry_epoch == expiry_epoch) {
    return;  // identical to what the node already holds: no news
  }

  Message m;
  m.kind = MsgKind::kCapGrant;
  m.grant = CapGrant{ledger_.next_seq(node), cap, expiry_epoch, t};
  ledger_.record_grant(node, m.grant);
  channel_.send_to_node(node, m, t);

  // Bounded-exponential re-send schedule with deterministic jitter on
  // the epoch clock. Reset on any ack progress (handle_ack).
  ++attempts_[i];
  const int shift = std::min(attempts_[i] - 1, 30);
  double backoff = std::min<double>(
      static_cast<double>(kRetryBaseEpochs) * static_cast<double>(1u << shift),
      static_cast<double>(config_.retry_max_epochs));
  backoff *= 1.0 - kRetryJitter / 2.0 +
             kRetryJitter * retry_rng_[i].next_double();
  next_retry_[i] = t + std::max(1, static_cast<int>(backoff));
}

const std::vector<double>& CommsFabric::effective_caps(int t) {
  const int n = nodes();
  for (int i = 0; i < n; ++i) {
    for (const Message& m : channel_.recv_node(i, t)) {
      STURGEON_CHECK(m.kind == MsgKind::kCapGrant,
                     "CommsFabric: non-grant on the down link");
      clients_[static_cast<std::size_t>(i)].on_grant(m.grant);
    }
    effective_[static_cast<std::size_t>(i)] =
        clients_[static_cast<std::size_t>(i)].cap(t);
  }
  return effective_;
}

void CommsFabric::send_report(int node, const cluster::NodeReport& report,
                              int last_step_epoch, int t) {
  const auto i = static_cast<std::size_t>(node);
  Message m;
  m.kind = MsgKind::kNodeReport;
  m.report.seq = ++report_seq_next_[i];
  m.report.node = node;
  m.report.report = report;
  m.report.last_step_epoch = last_step_epoch;
  m.report.ack_seq = clients_[i].ack_seq();
  m.report.autonomy_epochs = clients_[i].autonomy_epochs();
  channel_.send_to_coord(node, m, t);
}

void CommsFabric::send_heartbeat(int node, int t) {
  const auto i = static_cast<std::size_t>(node);
  Message m;
  m.kind = MsgKind::kHeartbeat;
  m.beat = Heartbeat{node, t, clients_[i].ack_seq(),
                     clients_[i].autonomy_epochs()};
  channel_.send_to_coord(node, m, t);
}

std::uint64_t CommsFabric::lease_renewals() const {
  std::uint64_t sum = 0;
  for (const LeaseClient& c : clients_) sum += c.renewals();
  return sum;
}

std::uint64_t CommsFabric::lease_expiries() const {
  std::uint64_t sum = 0;
  for (const LeaseClient& c : clients_) sum += c.expiries();
  return sum;
}

std::uint64_t CommsFabric::autonomy_epochs() const {
  std::uint64_t sum = 0;
  for (const LeaseClient& c : clients_) sum += c.autonomy_epochs();
  return sum;
}

void CommsFabric::export_metrics(telemetry::MetricsRegistry& registry) const {
  const ChannelStats& s = channel_.stats();
  registry.counter("comms.sent").add(s.sent);
  registry.counter("comms.delivered").add(s.delivered);
  registry.counter("comms.dropped").add(s.dropped);
  registry.counter("comms.delayed").add(s.delayed);
  registry.counter("comms.duplicated").add(s.duplicated);
  registry.gauge("comms.in_flight").set(static_cast<double>(s.in_flight()));
  const ChannelStats& g = channel_.grant_stats();
  registry.counter("comms.grants_sent").add(g.sent);
  registry.counter("comms.grants_delivered").add(g.delivered);
  registry.counter("comms.grants_dropped").add(g.dropped);
  registry.gauge("comms.grants_in_flight")
      .set(static_cast<double>(g.in_flight()));
  registry.counter("comms.stale_reports").add(stale_reports_);
  registry.counter("comms.lease_renewals").add(lease_renewals());
  registry.counter("comms.lease_expiries").add(lease_expiries());
  registry.counter("comms.autonomy_epochs").add(autonomy_epochs());
}

}  // namespace sturgeon::comms
