// CommsFabric: the engine-facing assembly of channel + leases.
//
// The fabric owns the whole messaging plane of one run: the
// MessageChannel, the coordinator-side LeaseLedger and retransmit
// state, and one LeaseClient per node (the node-side protocol agent --
// modeled as always-responsive firmware; crash realism enters through
// the node never SENDING reports while down, so its adoptions are
// never acked and the ledger stays conservative about it).
//
// Per-epoch call order (all from the engine's sequential phases):
//
//   collect(t)                 drain the coordinator inbox: refresh the
//                              report vector, heartbeat epochs, acks,
//                              and the one-shot lease-lapse flags;
//   send_grants(desired, ...)  coordinator -> nodes: leases with
//                              term-aligned expiries, ledger-clamped
//                              (lease.h invariant), bounded-exponential
//                              re-send with deterministic jitter, no
//                              sends to dead-classified nodes. The
//                              protocol is the same whatever the
//                              network does; on a zero-fault network
//                              every grant lands in its send epoch;
//   effective_caps(t)          node side: adopt due grants, return the
//                              cap each node actually runs this epoch
//                              (the TRUE caps the budget check sums);
//   send_report / send_heartbeat
//                              node -> coordinator, after stepping.
#pragma once

#include <cstdint>
#include <vector>

#include "comms/channel.h"
#include "comms/lease.h"
#include "comms/message.h"
#include "util/rng.h"

namespace sturgeon::telemetry {
class MetricsRegistry;
}  // namespace sturgeon::telemetry

namespace sturgeon::comms {

class CommsFabric {
 public:
  /// `initial_reports` seeds the coordinator's report vector (the
  /// nodes' pre-step reports, which the direct transport reads at t=0,
  /// before any message could arrive); `idle_w` feeds the autonomous
  /// fallback split.
  /// `seed` should be derive_seed(engine seed, kCommsStream).
  CommsFabric(const CommsConfig& config, std::uint64_t seed, double budget_w,
              std::vector<cluster::NodeReport> initial_reports,
              std::vector<double> idle_w);

  int nodes() const { return static_cast<int>(reports_.size()); }

  // -- coordinator side ------------------------------------------------
  void collect(int t);
  /// Latest received report per node (raw: liveness/rejoined unstamped).
  const std::vector<cluster::NodeReport>& reports() const { return reports_; }
  /// Latest heartbeat epoch per node (HeartbeatTracker input; -1 =
  /// nothing heard yet).
  const std::vector<int>& last_report_epochs() const {
    return last_report_epochs_;
  }
  /// One-shot per collect(): node i's autonomy count grew since its
  /// previous message, i.e. its lease lapsed in between (the tracker
  /// turns this into a rejoin-style rebase).
  const std::vector<bool>& lease_lapsed() const { return lease_lapsed_; }
  /// Send this epoch's cap decisions; `dead[i]` suppresses the send (no
  /// point messaging a dead-classified node; its lease lapses into the
  /// autonomous fallback the ledger already reserves).
  void send_grants(const std::vector<double>& desired_w,
                   const std::vector<bool>& dead, int t);

  // -- node side -------------------------------------------------------
  /// Adopt due grants and return the caps actually in force at t (call
  /// exactly once per epoch, after send_grants).
  const std::vector<double>& effective_caps(int t);
  void send_report(int node, const cluster::NodeReport& report,
                   int last_step_epoch, int t);
  void send_heartbeat(int node, int t);

  // -- accounting ------------------------------------------------------
  const ChannelStats& stats() const { return channel_.stats(); }
  const ChannelStats& grant_stats() const { return channel_.grant_stats(); }
  const LeaseClient& client(int node) const {
    return clients_[static_cast<std::size_t>(node)];
  }
  std::uint64_t stale_reports() const { return stale_reports_; }
  std::uint64_t lease_renewals() const;
  std::uint64_t lease_expiries() const;
  std::uint64_t autonomy_epochs() const;

  /// Mirror totals into `comms.*` counters/gauges of `registry` (call
  /// once, end of run, before the rollup flushes).
  void export_metrics(telemetry::MetricsRegistry& registry) const;

 private:
  void handle_ack(int node, std::uint64_t ack_seq);
  void note_autonomy(int node, std::uint64_t autonomy_epochs);
  void maybe_grant(int node, double desired_w, int expiry_epoch, int t);

  CommsConfig config_;
  MessageChannel channel_;
  LeaseLedger ledger_;
  std::vector<LeaseClient> clients_;
  std::vector<double> idle_w_;
  std::vector<cluster::NodeReport> reports_;
  std::vector<int> last_report_epochs_;
  std::vector<bool> lease_lapsed_;
  std::vector<std::uint64_t> report_seq_seen_;
  std::vector<std::uint64_t> report_seq_next_;
  std::vector<std::uint64_t> autonomy_seen_;
  std::vector<int> attempts_;
  std::vector<int> next_retry_;
  std::vector<Rng> retry_rng_;
  std::vector<double> effective_;
  std::uint64_t stale_reports_ = 0;
};

}  // namespace sturgeon::comms
