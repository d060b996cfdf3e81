// MessageChannel contract: a zero-fault link delivers each message
// exactly once, in its send epoch, in per-link FIFO order; faulted
// links perturb deterministically per seed; the accounting identity
// sent == delivered + dropped + in_flight holds through any mix of
// faults (duplicates tracked separately).
#include "comms/channel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace sturgeon::comms {
namespace {

Message report_msg(int node, std::uint64_t seq) {
  Message m;
  m.kind = MsgKind::kNodeReport;
  m.report.node = node;
  m.report.seq = seq;
  return m;
}

Message grant_msg(std::uint64_t seq, double cap_w) {
  Message m;
  m.kind = MsgKind::kCapGrant;
  m.grant = CapGrant{seq, cap_w, 10, 0};
  return m;
}

TEST(MessageChannel, ReliableDeliversSameEpochInFifoOrder) {
  MessageChannel ch(fault::NetworkFaultConfig{}, 1, 2);
  ch.send_to_coord(0, report_msg(0, 1), 5);
  ch.send_to_coord(1, report_msg(1, 1), 5);
  ch.send_to_coord(0, report_msg(0, 2), 5);

  // Nothing receivable before the send epoch. Each link keeps its send
  // order; links interleave by position on their link.
  EXPECT_TRUE(ch.recv_coord(4).empty());
  const std::vector<Message> got = ch.recv_coord(5);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].report.node, 0);
  EXPECT_EQ(got[0].report.seq, 1u);
  EXPECT_EQ(got[1].report.node, 1);
  EXPECT_EQ(got[2].report.seq, 2u);
  // Drained exactly once.
  EXPECT_TRUE(ch.recv_coord(5).empty());
  EXPECT_EQ(ch.stats().sent, 3u);
  EXPECT_EQ(ch.stats().delivered, 3u);
  EXPECT_EQ(ch.stats().dropped, 0u);
  EXPECT_EQ(ch.stats().in_flight(), 0u);
}

TEST(MessageChannel, NodeQueuesAreIndependent) {
  MessageChannel ch(fault::NetworkFaultConfig{}, 1, 2);
  ch.send_to_node(0, grant_msg(1, 50.0), 0);
  ch.send_to_node(1, grant_msg(1, 60.0), 0);
  const std::vector<Message> a = ch.recv_node(0, 0);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].grant.cap_w, 50.0);
  const std::vector<Message> b = ch.recv_node(1, 0);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].grant.cap_w, 60.0);
}

TEST(MessageChannel, GrantStatsCountOnlyDownlinkGrants) {
  MessageChannel ch(fault::NetworkFaultConfig{}, 1, 1);
  ch.send_to_node(0, grant_msg(1, 50.0), 0);
  ch.send_to_coord(0, report_msg(0, 1), 0);
  EXPECT_EQ(ch.stats().sent, 2u);
  EXPECT_EQ(ch.grant_stats().sent, 1u);
  (void)ch.recv_node(0, 0);
  (void)ch.recv_coord(0);
  EXPECT_EQ(ch.grant_stats().delivered, 1u);
  EXPECT_EQ(ch.grant_stats().in_flight(), 0u);
}

TEST(MessageChannel, DropsAreCountedAndNeverDelivered) {
  fault::NetworkFaultConfig net;
  net.drop_p = 1.0;
  MessageChannel ch(net, 7, 1);
  for (int t = 0; t < 10; ++t) ch.send_to_coord(0, report_msg(0, t + 1), t);
  EXPECT_TRUE(ch.recv_coord(100).empty());
  EXPECT_EQ(ch.stats().sent, 10u);
  EXPECT_EQ(ch.stats().dropped, 10u);
  EXPECT_EQ(ch.stats().delivered, 0u);
  EXPECT_EQ(ch.stats().in_flight(), 0u);
}

TEST(MessageChannel, DelayedMessagesArriveWithinBound) {
  fault::NetworkFaultConfig net;
  net.delay_p = 1.0;
  net.max_delay_epochs = 3;
  MessageChannel ch(net, 7, 1);
  ch.send_to_coord(0, report_msg(0, 1), 0);
  EXPECT_TRUE(ch.recv_coord(0).empty());  // delayed past the send epoch
  const std::vector<Message> got = ch.recv_coord(3);  // <= max delay
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(ch.stats().delayed, 1u);
  EXPECT_EQ(ch.stats().delivered, 1u);
}

TEST(MessageChannel, DuplicateDeliversTwiceButCountsOnePrimary) {
  fault::NetworkFaultConfig net;
  net.duplicate_p = 1.0;
  MessageChannel ch(net, 7, 1);
  ch.send_to_node(0, grant_msg(3, 40.0), 2);
  const std::vector<Message> first = ch.recv_node(0, 2);
  ASSERT_EQ(first.size(), 1u);
  // The copy lands in a LATER batch -- the idempotence-interesting case.
  const std::vector<Message> second = ch.recv_node(0, 3);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].grant.seq, 3u);
  EXPECT_EQ(ch.stats().sent, 1u);
  EXPECT_EQ(ch.stats().delivered, 1u);  // primary only
  EXPECT_EQ(ch.stats().duplicated, 1u);
  EXPECT_EQ(ch.stats().in_flight(), 0u);
}

TEST(MessageChannel, PartitionSilencesTheWindowThenHeals) {
  fault::NetworkFaultConfig net;
  net.partition_start_epoch = 5;
  net.partition_epochs = 3;  // epochs 5,6,7 dark
  MessageChannel ch(net, 7, 1);
  ch.send_to_coord(0, report_msg(0, 1), 4);
  ch.send_to_coord(0, report_msg(0, 2), 5);
  ch.send_to_coord(0, report_msg(0, 3), 7);
  ch.send_to_coord(0, report_msg(0, 4), 8);
  std::vector<Message> got = ch.recv_coord(100);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].report.seq, 1u);
  EXPECT_EQ(got[1].report.seq, 4u);
  EXPECT_EQ(ch.stats().dropped, 2u);
}

TEST(MessageChannel, PartitionCanTargetOneNodesLinks) {
  fault::NetworkFaultConfig net;
  net.partition_start_epoch = 0;
  net.partition_epochs = 10;
  net.partition_node = 1;
  MessageChannel ch(net, 7, 2);
  ch.send_to_coord(0, report_msg(0, 1), 3);
  ch.send_to_coord(1, report_msg(1, 1), 3);
  const std::vector<Message> got = ch.recv_coord(3);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].report.node, 0);
}

TEST(MessageChannel, AccountingIdentityHoldsUnderMixedChaos) {
  fault::NetworkFaultConfig net;
  net.drop_p = 0.2;
  net.delay_p = 0.3;
  net.max_delay_epochs = 4;
  net.duplicate_p = 0.2;
  net.reorder_p = 0.3;
  MessageChannel ch(net, 42, 3);
  std::uint64_t received = 0, dup_received = 0;
  std::uint64_t seq = 0;
  for (int t = 0; t < 200; ++t) {
    for (int node = 0; node < 3; ++node) {
      ch.send_to_coord(node, report_msg(node, ++seq), t);
      ch.send_to_node(node, grant_msg(seq, 50.0), t);
    }
    received += ch.recv_coord(t).size();
    for (int node = 0; node < 3; ++node) {
      received += ch.recv_node(node, t).size();
    }
  }
  const ChannelStats& s = ch.stats();
  EXPECT_EQ(s.sent, 1200u);
  EXPECT_GT(s.dropped, 0u);
  EXPECT_GT(s.delayed, 0u);
  EXPECT_GT(s.duplicated, 0u);
  EXPECT_EQ(s.sent, s.delivered + s.dropped + s.in_flight());
  // Received counts primaries + duplicate copies.
  dup_received = received - s.delivered;
  EXPECT_LE(dup_received, s.duplicated);
  // Drain the tail: everything in flight is eventually deliverable.
  received = ch.recv_coord(1000).size();
  for (int node = 0; node < 3; ++node) {
    received += ch.recv_node(node, 1000).size();
  }
  EXPECT_EQ(ch.stats().in_flight(), 0u);
  EXPECT_EQ(ch.stats().sent,
            ch.stats().delivered + ch.stats().dropped);
}

TEST(MessageChannel, ChaosScheduleIsDeterministicPerSeed) {
  fault::NetworkFaultConfig net;
  net.drop_p = 0.3;
  net.delay_p = 0.3;
  net.duplicate_p = 0.2;
  net.reorder_p = 0.4;
  const auto run = [&net](std::uint64_t seed) {
    MessageChannel ch(net, seed, 2);
    std::vector<std::uint64_t> order;
    std::uint64_t seq = 0;
    for (int t = 0; t < 50; ++t) {
      for (int node = 0; node < 2; ++node) {
        ch.send_to_coord(node, report_msg(node, ++seq), t);
      }
      for (const Message& m : ch.recv_coord(t)) order.push_back(m.report.seq);
    }
    return order;
  };
  EXPECT_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));
}

}  // namespace
}  // namespace sturgeon::comms
