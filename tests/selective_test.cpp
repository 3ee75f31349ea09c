// Tests for the selective group communication extension (paper §4 defers
// this to reference [11]; DESIGN.md documents our design): PDUs carry a
// destination set, non-destinations participate in ordering/confirmation
// but never deliver to their application.
#include <gtest/gtest.h>

#include "src/driver/cluster.h"
#include "src/co/wire.h"

namespace co::proto {
namespace {

using sim::literals::operator""_us;

ClusterOptions options(std::size_t n) {
  ClusterOptions o;
  o.proto.n = n;
  o.proto.window = 8;
  o.proto.defer_timeout = 500_us;
  o.proto.retransmit_timeout = 2 * sim::kMillisecond;
  o.net.delay = net::DelayModel::fixed(100_us);
  o.net.buffer_capacity = 4096;
  return o;
}

TEST(Selective, DstMaskHelpers) {
  const DstMask m = dst_of({0, 2});
  EXPECT_TRUE(dst_contains(m, 0));
  EXPECT_FALSE(dst_contains(m, 1));
  EXPECT_TRUE(dst_contains(m, 2));
  for (EntityId e = 0; e < 64; ++e) EXPECT_TRUE(dst_contains(kEveryone, e));
}

TEST(Selective, DeliveredOnlyAtDestinations) {
  CoCluster c(options(4));
  c.submit_text(0, "for 1 and 3", dst_of({1, 3}));
  ASSERT_TRUE(c.run_until_delivered(1'000 * sim::kMillisecond));
  EXPECT_EQ(c.deliveries(0).size(), 0u);  // sender not a destination
  EXPECT_EQ(c.deliveries(1).size(), 1u);
  EXPECT_EQ(c.deliveries(2).size(), 0u);
  EXPECT_EQ(c.deliveries(3).size(), 1u);
  EXPECT_EQ(c.check_co_service(), std::nullopt);
}

TEST(Selective, SenderCanBeItsOwnDestination) {
  CoCluster c(options(3));
  c.submit_text(1, "self-included", dst_of({0, 1}));
  ASSERT_TRUE(c.run_until_delivered(1'000 * sim::kMillisecond));
  EXPECT_EQ(c.deliveries(0).size(), 1u);
  EXPECT_EQ(c.deliveries(1).size(), 1u);
  EXPECT_EQ(c.deliveries(2).size(), 0u);
}

TEST(Selective, CausalityAcrossOverlappingGroups) {
  // p -> {0,1}; E1 delivers p, then sends q -> {1,2}. p ≺ q. E2 never sees
  // p's payload, but the common destination of nothing... E1 sees both in
  // order; everyone's log is causality-preserved w.r.t. what it received.
  CoCluster c(options(3));
  c.submit_text(0, "p", dst_of({0, 1}));
  ASSERT_TRUE(c.run_until_delivered(1'000 * sim::kMillisecond));
  c.submit_text(1, "q", dst_of({1, 2}));
  ASSERT_TRUE(c.run_until_delivered(2'000 * sim::kMillisecond));

  const auto log1 = c.delivered_keys(1);
  ASSERT_EQ(log1.size(), 2u);
  EXPECT_TRUE(c.oracle().causally_precedes(log1[0], log1[1]));
  EXPECT_EQ(c.deliveries(2).size(), 1u);
  EXPECT_EQ(c.check_co_service(), std::nullopt);
}

TEST(Selective, HiddenChannelThroughNonDestination) {
  // The subtle case: E1 is NOT a destination of p, but still accepts it
  // (control plane is cluster-wide) and then broadcasts q to everyone.
  // Protocol-level causality p ≺ q must hold wherever both are delivered.
  CoCluster c(options(3));
  c.submit_text(0, "p", dst_of({2}));  // only E2 delivers p
  ASSERT_TRUE(c.run_until_delivered(1'000 * sim::kMillisecond));
  c.submit_text(1, "q");  // E1 accepted p (without delivering); q everywhere
  ASSERT_TRUE(c.run_until_delivered(2'000 * sim::kMillisecond));
  const auto log2 = c.delivered_keys(2);
  ASSERT_EQ(log2.size(), 2u);
  EXPECT_EQ(log2[0].src, 0);  // p strictly before q at the common dest
  EXPECT_EQ(log2[1].src, 1);
  EXPECT_EQ(c.check_co_service(), std::nullopt);
}

TEST(Selective, MixedTrafficUnderLoss) {
  auto o = options(5);
  o.net.injected_loss = 0.08;
  o.net.seed = 21;
  CoCluster c(o);
  Rng rng(4242);
  for (int m = 0; m < 40; ++m) {
    const auto src = static_cast<EntityId>(rng.next_below(5));
    DstMask dst = kEveryone;
    if (rng.next_bool(0.6)) {
      dst = 0;
      for (EntityId e = 0; e < 5; ++e)
        if (rng.next_bool(0.5)) dst |= DstMask{1} << static_cast<unsigned>(e);
      if (dst == 0) dst = dst_of({src});  // at least someone
    }
    c.submit_text(src, "m" + std::to_string(m), dst);
    if (rng.next_bool(0.5)) c.run_for(300_us);
  }
  ASSERT_TRUE(c.run_until_delivered(120'000 * sim::kMillisecond));
  EXPECT_EQ(c.check_co_service(), std::nullopt);
}

TEST(Selective, WireRoundTripsDstMask) {
  CoPdu p;
  p.cid = 1;
  p.src = 0;
  p.seq = 5;
  p.ack = {1, 2, 3};
  p.dst = dst_of({1, 2});
  p.data = {9};
  const Message decoded = decode(encode(Message(p)));
  EXPECT_EQ(std::get<PduRef>(decoded)->dst, p.dst);

  p.dst = kEveryone;
  const Message decoded2 = decode(encode(Message(p)));
  EXPECT_EQ(std::get<PduRef>(decoded2)->dst, kEveryone);
  // Broadcast-to-all costs exactly one flag byte more than nothing.
  CoPdu q = p;
  q.dst = dst_of({0});
  EXPECT_GT(encode(Message(q)).size(), 0u);
}

TEST(Selective, ForeignClusterPdusAreIgnored) {
  CoCluster c(options(3));
  // Inject a PDU from a different cluster id directly.
  CoPdu alien;
  alien.cid = 999;  // cluster uses cid 1
  alien.src = 1;
  alien.seq = 1;
  alien.ack = {1, 1, 1};
  alien.data = {1};
  c.entity_driver(0).on_message(1, Message(alien), c.scheduler().now());
  EXPECT_EQ(c.entity(0).stats().foreign_cluster_dropped, 1u);
  EXPECT_EQ(c.entity(0).req(1), kFirstSeq);  // not accepted

  // A co-located cluster may even have a different SIZE; the CID filter
  // must run before any shape validation.
  CoPdu alien2 = alien;
  alien2.ack = {1, 1, 1, 1, 1, 1};  // from a 6-entity cluster
  c.entity_driver(0).on_message(1, Message(alien2), c.scheduler().now());
  EXPECT_EQ(c.entity(0).stats().foreign_cluster_dropped, 2u);
  RetPdu alien_ret;
  alien_ret.cid = 999;
  alien_ret.src = 1;
  alien_ret.lsrc = 0;
  alien_ret.lseq = 5;
  alien_ret.ack = {1, 1};
  c.entity_driver(0).on_message(1, Message(alien_ret), c.scheduler().now());
  EXPECT_EQ(c.entity(0).stats().foreign_cluster_dropped, 3u);
  EXPECT_EQ(c.entity(0).stats().retransmissions_sent, 0u);
}

TEST(Selective, StabilityBoundTracksAcknowledgment) {
  // stable_seq(j) rises as PDUs become acknowledged; everything below it is
  // never requested again (the sender may prune, the app may checkpoint).
  CoCluster c(options(3));
  for (int i = 0; i < 5; ++i) c.submit_text(0, "x");
  ASSERT_TRUE(c.run_until_delivered(60'000 * sim::kMillisecond));
  // Everything delivered everywhere; run a little longer so the final
  // confirmation rounds land, then the bound must cover the data stream.
  c.run_for(10 * sim::kMillisecond);
  for (EntityId e = 0; e < 3; ++e)
    EXPECT_GT(c.entity(e).stable_seq(0), 5u)
        << "entity " << e << " still considers E0's data unstable";
  // Stable implies pruned at the source.
  EXPECT_LE(c.entity(0).sent_log_size(), c.entity(0).next_seq() -
                                             c.entity(0).stable_seq(0));
}

}  // namespace
}  // namespace co::proto
