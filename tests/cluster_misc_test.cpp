// Odds-and-ends coverage: delivery metadata, metric plumbing, stats
// formatting — the small API surfaces the larger suites use implicitly.
#include <gtest/gtest.h>

#include <sstream>

#include "src/driver/cluster.h"

namespace co::proto {
namespace {

using sim::literals::operator""_us;

ClusterOptions opts(std::size_t n) {
  ClusterOptions o;
  o.proto.n = n;
  o.net.delay = net::DelayModel::fixed(100_us);
  o.net.buffer_capacity = 1024;
  return o;
}

TEST(ClusterMisc, DeliveriesCarryExactPayloadAndTimestamp) {
  CoCluster c(opts(2));
  const std::vector<std::uint8_t> payload{0x00, 0xff, 0x42};
  c.submit(0, payload);
  ASSERT_TRUE(c.run_until_delivered(10'000 * sim::kMillisecond));
  const auto& d = c.deliveries(1);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].data, payload);
  EXPECT_GT(d[0].at, 0);  // delivered strictly after t=0
  EXPECT_EQ(d[0].key.src, 0);
}

TEST(ClusterMisc, TapStatsPopulate) {
  CoCluster c(opts(3));
  for (int i = 0; i < 4; ++i) c.submit_text(0, "x");
  ASSERT_TRUE(c.run_until_delivered(10'000 * sim::kMillisecond));
  // 4 PDUs x 3 destinations = 12 latency samples.
  EXPECT_EQ(c.tap_ms().count(), 12u);
  EXPECT_GT(c.tap_ms().mean(), 0.0);
  EXPECT_GE(c.tap_ms().max(), c.tap_ms().mean());
}

TEST(ClusterMisc, AggregateStatsAddUp) {
  CoCluster c(opts(3));
  for (int i = 0; i < 6; ++i) c.submit_text(static_cast<EntityId>(i % 3), "x");
  ASSERT_TRUE(c.run_until_delivered(10'000 * sim::kMillisecond));
  const auto agg = c.aggregate_stats();
  std::uint64_t data = 0, delivered = 0;
  for (EntityId e = 0; e < 3; ++e) {
    data += c.entity(e).stats().data_pdus_sent;
    delivered += c.entity(e).stats().delivered_to_app;
  }
  EXPECT_EQ(agg.data_pdus_sent, data);
  EXPECT_EQ(agg.delivered_to_app, delivered);
  EXPECT_EQ(agg.delivered_to_app, 18u);
  EXPECT_GT(agg.messages_processed, 0u);
  EXPECT_GT(agg.tco_us_per_message(), 0.0);
}

TEST(ClusterMisc, AggregateStatsSumEveryCounter) {
  // Drive every counter family at least somewhere: loss makes RETs,
  // retransmissions and tail-loss probes; direct injection at E0 adds an
  // alien-CID PDU and a malformed RET (wrong ACK width).
  ClusterOptions o = opts(4);
  o.net.injected_loss = 0.3;
  o.net.seed = 7;
  CoCluster c(o);
  CoPdu alien;
  alien.cid = 999;  // the cluster uses cid 1
  alien.src = 1;
  alien.seq = 1;
  alien.ack = {1, 1, 1, 1};
  alien.data = {1};
  c.entity_driver(0).on_message(1, Message(alien), c.scheduler().now());
  RetPdu malformed;
  malformed.cid = c.entity(0).config().cid;
  malformed.src = 1;
  malformed.lsrc = 0;
  malformed.lseq = 1;
  malformed.ack = {1, 1};
  c.entity_driver(0).on_message(1, Message(malformed), c.scheduler().now());
  for (int i = 0; i < 40; ++i) c.submit_text(static_cast<EntityId>(i % 4), "x");
  ASSERT_TRUE(c.run_until_delivered(60'000 * sim::kMillisecond));

  using Counter = std::uint64_t CoEntityStats::*;
  const std::pair<const char*, Counter> counters[] = {
      {"data_pdus_sent", &CoEntityStats::data_pdus_sent},
      {"ctrl_pdus_sent", &CoEntityStats::ctrl_pdus_sent},
      {"ret_pdus_sent", &CoEntityStats::ret_pdus_sent},
      {"retransmissions_sent", &CoEntityStats::retransmissions_sent},
      {"pdus_accepted", &CoEntityStats::pdus_accepted},
      {"duplicates_dropped", &CoEntityStats::duplicates_dropped},
      {"foreign_cluster_dropped", &CoEntityStats::foreign_cluster_dropped},
      {"malformed_dropped", &CoEntityStats::malformed_dropped},
      {"parked_out_of_order", &CoEntityStats::parked_out_of_order},
      {"pre_acknowledged", &CoEntityStats::pre_acknowledged},
      {"acknowledged", &CoEntityStats::acknowledged},
      {"delivered_to_app", &CoEntityStats::delivered_to_app},
      {"f1_detections", &CoEntityStats::f1_detections},
      {"f2_detections", &CoEntityStats::f2_detections},
      {"ret_retries", &CoEntityStats::ret_retries},
      {"heartbeats_sent", &CoEntityStats::heartbeats_sent},
      {"flow_blocked", &CoEntityStats::flow_blocked},
      {"processing_ns", &CoEntityStats::processing_ns},
      {"messages_processed", &CoEntityStats::messages_processed},
  };
  const CoEntityStats agg = c.aggregate_stats();
  for (const auto& [name, field] : counters) {
    std::uint64_t sum = 0;
    for (EntityId e = 0; e < 4; ++e) sum += c.entity(e).stats().snapshot().*field;
    EXPECT_EQ(agg.*field, sum) << name;
  }
  EXPECT_EQ(agg.foreign_cluster_dropped, 1u);
  EXPECT_EQ(agg.malformed_dropped, 1u);
  EXPECT_GT(agg.heartbeats_sent, 0u);

  std::size_t max_sl = 0, pack_samples = 0, ack_samples = 0;
  for (EntityId e = 0; e < 4; ++e) {
    const auto s = c.entity(e).stats().snapshot();
    max_sl = std::max(max_sl, s.max_sl);
    pack_samples += s.accept_to_pack_ms.count();
    ack_samples += s.accept_to_ack_ms.count();
  }
  EXPECT_EQ(agg.max_sl, max_sl);
  EXPECT_EQ(agg.accept_to_pack_ms.count(), pack_samples);
  EXPECT_EQ(agg.accept_to_ack_ms.count(), ack_samples);
}

TEST(ClusterMisc, NetworkStatsStreamOutput) {
  net::NetworkStats s;
  s.broadcasts = 1;
  s.pdus_sent = 3;
  s.dropped_overrun = 2;
  std::ostringstream os;
  os << s;
  EXPECT_NE(os.str().find("broadcasts=1"), std::string::npos);
  EXPECT_NE(os.str().find("drop_overrun=2"), std::string::npos);
  EXPECT_EQ(s.dropped_total(), 2u);
  EXPECT_NEAR(s.loss_rate(), 2.0 / 3.0, 1e-9);
}

TEST(ClusterMisc, RunForAdvancesSimTimeExactly) {
  CoCluster c(opts(2));
  c.run_for(1234 * sim::kMicrosecond);
  EXPECT_EQ(c.scheduler().now(), 1234 * sim::kMicrosecond);
}

TEST(ClusterMisc, RecordTraceOffStillDelivers) {
  auto o = opts(2);
  o.record_trace = false;
  CoCluster c(o);
  c.submit_text(0, "x");
  ASSERT_TRUE(c.run_until_delivered(10'000 * sim::kMillisecond));
  EXPECT_EQ(c.deliveries(1).size(), 1u);
  EXPECT_THROW((void)c.check_co_service(), std::logic_error);
}

TEST(ClusterMisc, SubmitRejectsEmptyPayload) {
  CoCluster c(opts(2));
  EXPECT_THROW(c.submit(0, {}), std::logic_error);
}

TEST(ClusterMisc, EntityAccessorBoundsChecked) {
  CoCluster c(opts(2));
  EXPECT_THROW(c.entity(2), std::logic_error);
  EXPECT_THROW(c.entity(-1), std::logic_error);
  EXPECT_THROW(c.deliveries(5), std::logic_error);
}

TEST(ClusterMisc, UndeliveredBufferedDrainsToControlResidue) {
  CoCluster c(opts(3));
  for (int i = 0; i < 5; ++i) c.submit_text(0, "x");
  ASSERT_TRUE(c.run_until_delivered(10'000 * sim::kMillisecond));
  // After delivery, only ack-only PDUs may still sit in RRL/PRL awaiting
  // their own (irrelevant) acknowledgment.
  for (EntityId e = 0; e < 3; ++e) {
    const auto& ent = c.entity(e);
    EXPECT_EQ(ent.stats().delivered_to_app, 5u);
    EXPECT_LT(ent.undelivered_buffered(), 64u);
  }
}

}  // namespace
}  // namespace co::proto
