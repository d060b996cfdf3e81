// Typed coordinator<->node protocol messages and the comms configuration.
//
// The direct transport passes caps and reports through shared memory; at
// fleet scale those are network messages, and the budget-safety story
// has to survive the network losing, delaying, duplicating and
// reordering them. This header defines the wire format:
//
//   CapGrant       coordinator -> node. A cap is a LEASE: it carries an
//                  expiry epoch, and a node whose lease lapses without
//                  renewal falls back to its conservative autonomous cap
//                  (static-equal share of the cluster budget, floored at
//                  idle power). Sequence numbers are per-node monotone;
//                  nodes adopt only seq increases, which makes duplicate
//                  and reordered deliveries idempotent.
//   NodeReportMsg  node -> coordinator. The node's last-epoch NodeReport
//                  plus its heartbeat (last_step_epoch), the highest
//                  grant seq it adopted (cumulative ack) and how many
//                  epochs it has spent on its autonomous cap.
//   Heartbeat      node -> coordinator, report-free liveness for nodes
//                  with nothing new to say (quiescent fleet sleepers).
//
// Everything is plain data: the channel (channel.h) moves Message values
// between per-link queues, the lease machinery (lease.h) interprets
// them, and the fabric (fabric.h) wires both into the engines.
#pragma once

#include <cstdint>

#include "cluster/coordinator.h"
#include "fault/injector.h"

namespace sturgeon::comms {

enum class MsgKind { kCapGrant, kNodeReport, kHeartbeat };

const char* to_string(MsgKind kind);

/// One cap lease from the coordinator to a node.
struct CapGrant {
  std::uint64_t seq = 0;  ///< per-node monotone; 0 means "no lease"
  double cap_w = 0.0;
  /// First epoch the lease no longer covers. Term-aligned: every grant
  /// inside a lease term expires at the term boundary, so in steady
  /// state the whole fleet's leases roll over together and a renewal
  /// never has to fit beside a mix of half-expired caps.
  int expiry_epoch = 0;
  int granted_at = 0;  ///< epoch the coordinator issued it
};

/// One node's epoch report on the wire.
struct NodeReportMsg {
  std::uint64_t seq = 0;  ///< per-node monotone report counter
  int node = -1;
  cluster::NodeReport report;
  int last_step_epoch = -1;  ///< the node's heartbeat
  /// Cumulative ack: highest grant seq this node has adopted. Riding on
  /// every report means a lost ack heals with the next report.
  std::uint64_t ack_seq = 0;
  /// Cumulative epochs this node has run on its autonomous fallback
  /// cap. An increase tells the coordinator the node's lease lapsed in
  /// between -- the rejoin-under-expired-lease signal the
  /// HeartbeatTracker turns into a one-shot rebase.
  std::uint64_t autonomy_epochs = 0;
};

/// Report-free liveness beat (same ack/autonomy piggyback).
struct Heartbeat {
  int node = -1;
  int epoch = -1;  ///< epoch the node considers itself healthy through
  std::uint64_t ack_seq = 0;
  std::uint64_t autonomy_epochs = 0;
};

/// Fat wire message: `kind` selects which payload is meaningful.
struct Message {
  MsgKind kind = MsgKind::kHeartbeat;
  CapGrant grant;
  NodeReportMsg report;
  Heartbeat beat;
};

struct CommsConfig {
  /// Route coordinator<->node traffic through the message channel when
  /// `network` can fault. Off by default. On a zero-fault network every
  /// message would land in its send epoch, so FleetSim keeps its direct
  /// path even with this set: the fields below are read only when
  /// `network.any()` (or by a CommsFabric built directly).
  bool enabled = false;
  /// Lease term length. Grants expire at the next term boundary (epoch
  /// multiples of this), so all leases in a term lapse together.
  int lease_epochs = 16;
  /// Renewal window: within this many epochs of the term boundary,
  /// grants are stamped with the FOLLOWING boundary and settled leases
  /// become due for renewal. Must exceed the grant->ack round trip
  /// (2 epochs) or every term boundary causes a spurious lapse.
  int renew_ahead_epochs = 4;
  /// Ceiling, in epochs, of the bounded-exponential grant re-send
  /// backoff (the base and the jitter are fixed in fabric.cpp).
  int retry_max_epochs = 8;
  /// Link perturbation. All-zero (the default) is a zero-fault
  /// network: each message is delivered once, in its send epoch, in
  /// per-link FIFO order.
  fault::NetworkFaultConfig network;
};

/// derive_seed stream label for the comms fabric (channel link streams
/// and retry jitter fork from the derived seed).
inline constexpr std::uint64_t kCommsStream = 0xC0;

}  // namespace sturgeon::comms
