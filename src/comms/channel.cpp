#include "comms/channel.h"

#include <algorithm>

#include "util/check.h"
#include "util/rng.h"

namespace sturgeon::comms {

const char* to_string(MsgKind kind) {
  switch (kind) {
    case MsgKind::kCapGrant: return "cap_grant";
    case MsgKind::kNodeReport: return "node_report";
    case MsgKind::kHeartbeat: return "heartbeat";
  }
  return "unknown";
}

namespace {
// Link-identity labels for derive_seed: the two directions of a node's
// link must be independent streams.
constexpr std::uint64_t kDownDirection = 1;
constexpr std::uint64_t kUpDirection = 2;
}  // namespace

MessageChannel::MessageChannel(const fault::NetworkFaultConfig& network,
                               std::uint64_t seed, int nodes)
    : to_node_(static_cast<std::size_t>(nodes)) {
  STURGEON_CHECK(nodes > 0, "MessageChannel: need at least one node, got "
                                << nodes);
  down_links_.reserve(static_cast<std::size_t>(nodes));
  up_links_.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    down_links_.emplace_back(
        network, derive_seed(seed, kDownDirection, static_cast<std::uint64_t>(i)),
        i);
    up_links_.emplace_back(
        network, derive_seed(seed, kUpDirection, static_cast<std::uint64_t>(i)),
        i);
  }
}

void MessageChannel::send(std::vector<Envelope>& queue,
                          fault::LinkFaultInjector& link,
                          const Message& message, int t, bool grant) {
  ++stats_.sent;
  if (grant) ++grant_stats_.sent;

  Envelope env;
  env.message = message;
  env.send_seq = ++send_seq_;
  const fault::LinkFate fate = link.on_send(t);
  if (fate.dropped) {
    ++stats_.dropped;
    if (grant) ++grant_stats_.dropped;
    return;
  }
  env.deliver_epoch = t + fate.delay_epochs;
  env.order_key = fate.order_key;
  if (fate.delay_epochs > 0) {
    ++stats_.delayed;
    if (grant) ++grant_stats_.delayed;
  }
  queue.push_back(env);
  if (fate.duplicated) {
    // The copy lands one epoch later: a later receive batch has to
    // prove adoption is idempotent, not just same-batch dedup.
    Envelope dup = env;
    dup.deliver_epoch += 1;
    dup.duplicate = true;
    queue.push_back(dup);
    ++stats_.duplicated;
    if (grant) ++grant_stats_.duplicated;
  }
}

void MessageChannel::send_to_node(int node, const Message& message, int t) {
  const auto i = static_cast<std::size_t>(node);
  send(to_node_.at(i), down_links_.at(i), message, t,
       message.kind == MsgKind::kCapGrant);
}

void MessageChannel::send_to_coord(int node, const Message& message, int t) {
  send(to_coord_, up_links_.at(static_cast<std::size_t>(node)), message, t,
       false);
}

std::vector<Message> MessageChannel::recv(std::vector<Envelope>& queue, int t) {
  // Partition due envelopes out, sort them into delivery order, count.
  auto due_end = std::stable_partition(
      queue.begin(), queue.end(),
      [t](const Envelope& e) { return e.deliver_epoch <= t; });
  std::sort(queue.begin(), due_end, [](const Envelope& a, const Envelope& b) {
    if (a.deliver_epoch != b.deliver_epoch) {
      return a.deliver_epoch < b.deliver_epoch;
    }
    if (a.order_key != b.order_key) return a.order_key < b.order_key;
    return a.send_seq < b.send_seq;
  });
  std::vector<Message> out;
  out.reserve(static_cast<std::size_t>(due_end - queue.begin()));
  for (auto it = queue.begin(); it != due_end; ++it) {
    if (!it->duplicate) {
      ++stats_.delivered;
      if (it->message.kind == MsgKind::kCapGrant) ++grant_stats_.delivered;
    }
    out.push_back(it->message);
  }
  queue.erase(queue.begin(), due_end);
  return out;
}

std::vector<Message> MessageChannel::recv_node(int node, int t) {
  return recv(to_node_.at(static_cast<std::size_t>(node)), t);
}

std::vector<Message> MessageChannel::recv_coord(int t) {
  return recv(to_coord_, t);
}

}  // namespace sturgeon::comms
