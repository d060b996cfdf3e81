// Simulated coordinator<->node message fabric with per-link fault
// injection.
//
// One MessageChannel carries all 2N links of a fleet: a "down" link
// (coordinator -> node) and an "up" link (node -> coordinator) per
// node. Each link owns a fault::LinkFaultInjector seeded from the
// channel seed and the link identity, so every link's drop / delay /
// duplicate / reorder schedule is an independent deterministic stream
// -- chaos-net runs are bit-reproducible across thread counts because
// all sends and receives happen in the engines' sequential phases.
//
// Delivery model (virtual epoch clock, no wall time):
//   - every send draws its fate from its link's injector. On a link
//     with no fault configured a message sent at epoch t is delivered
//     once, at epoch t (the coordinator's grant reaches the node before
//     the node steps), in per-link FIFO order;
//   - a delay fault postpones delivery by 1..max_delay_epochs;
//   - a duplicate fault delivers a second copy one epoch after the
//     first (the interesting case for idempotence: the dupe arrives in
//     a LATER receive batch);
//   - receives drain every message with deliver_epoch <= t, ordered by
//     (deliver_epoch, order_key, send sequence). Non-reordered sends
//     carry their link's monotone order keys (per-link FIFO; the up
//     links share the coordinator's queue and interleave by key, then
//     by send sequence); a reorder fault assigns a random key that
//     sorts the message ahead of / between its batch.
//
// Accounting identity (validated end-to-end by trace_stats):
//   sent == delivered + dropped + in_flight
// where all four count PRIMARY envelopes only; duplicate copies are
// tracked separately in `duplicated` and never enter the identity.
#pragma once

#include <cstdint>
#include <vector>

#include "comms/message.h"
#include "fault/injector.h"

namespace sturgeon::comms {

/// Channel-level accounting. `sent`, `delivered`, `dropped` count
/// primary envelopes; `in_flight()` is what is still queued.
struct ChannelStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;     ///< lost to drop faults or partitions
  std::uint64_t delayed = 0;     ///< delivered late (subset of delivered)
  std::uint64_t duplicated = 0;  ///< extra copies injected (not in sent)

  std::uint64_t in_flight() const { return sent - delivered - dropped; }
};

class MessageChannel {
 public:
  /// `seed` should be derive_seed(engine seed, kCommsStream); link
  /// injectors fork from it per (direction, node).
  MessageChannel(const fault::NetworkFaultConfig& network, std::uint64_t seed,
                 int nodes);

  int nodes() const { return static_cast<int>(to_node_.size()); }

  void send_to_node(int node, const Message& message, int t);
  void send_to_coord(int node, const Message& message, int t);

  /// Drain everything receivable at epoch `t` (deliver_epoch <= t), in
  /// deterministic delivery order.
  std::vector<Message> recv_node(int node, int t);
  std::vector<Message> recv_coord(int t);

  /// All-links totals, and the cap-grant subset (send_to_node messages
  /// of kind kCapGrant) for the grants_sent identity.
  const ChannelStats& stats() const { return stats_; }
  const ChannelStats& grant_stats() const { return grant_stats_; }

 private:
  struct Envelope {
    Message message;
    int deliver_epoch = 0;
    std::uint64_t order_key = 0;
    std::uint64_t send_seq = 0;  ///< global send order tie-break
    bool duplicate = false;
  };

  void send(std::vector<Envelope>& queue, fault::LinkFaultInjector& link,
            const Message& message, int t, bool grant);
  std::vector<Message> recv(std::vector<Envelope>& queue, int t);

  std::vector<fault::LinkFaultInjector> down_links_;  // coordinator -> node
  std::vector<fault::LinkFaultInjector> up_links_;    // node -> coordinator
  std::vector<std::vector<Envelope>> to_node_;
  std::vector<Envelope> to_coord_;
  std::uint64_t send_seq_ = 0;
  ChannelStats stats_;
  ChannelStats grant_stats_;
};

}  // namespace sturgeon::comms
