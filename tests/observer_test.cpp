// Unit tests: the unified CoObserver interface (null object, multicast
// combiner, cluster/user tap plumbing), the ClusterBuilder fluent API, and
// the DstMask width regression for clusters larger than 64 entities.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/driver/cluster.h"
#include "src/co/observer.h"

namespace co::proto {
namespace {

using sim::literals::operator""_us;

struct EventLog final : CoObserver {
  std::vector<std::string> events;

  void on_send(const PduKey& k, bool is_data) override {
    events.push_back("send " + std::to_string(k.src) + "#" +
                     std::to_string(k.seq) + (is_data ? " data" : " ctrl"));
  }
  void on_stage(obs::PduStage stage, const PduKey& k) override {
    const std::string key = std::to_string(k.src) + "#" + std::to_string(k.seq);
    if (stage == obs::PduStage::kAccept)
      events.push_back("accept " + key);
    else
      events.push_back("stage " + std::to_string(static_cast<int>(stage)) +
                       " " + key);
  }
};

TEST(Observer, NullObserverAcceptsEverythingQuietly) {
  CoObserver& o = null_observer();
  o.on_send({0, 1}, true);
  o.on_stage(obs::PduStage::kAccept, {0, 1});
  o.on_event(cat::CatId::kDup, {0, 1}, 0);
  EXPECT_EQ(&null_observer(), &null_observer());  // one shared instance
}

TEST(Observer, MulticastFansOutInInsertionOrder) {
  EventLog first, second;
  MulticastObserver multi;
  multi.add(&first);
  multi.add(nullptr);  // optional taps may be absent
  multi.add(&second);
  EXPECT_EQ(multi.size(), 2u);

  multi.on_send({2, 5}, true);
  multi.on_stage(obs::PduStage::kAccept, {2, 5});
  ASSERT_EQ(first.events.size(), 2u);
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.events[0], "send 2#5 data");
  EXPECT_EQ(first.events[1], "accept 2#5");
}

ClusterOptions small_options() {
  ClusterOptions o;
  o.proto.n = 3;
  o.proto.window = 4;
  o.proto.defer_timeout = 500_us;
  o.proto.retransmit_timeout = 2 * sim::kMillisecond;
  o.net.delay = net::DelayModel::fixed(100_us);
  o.net.buffer_capacity = 4096;
  return o;
}

TEST(ClusterBuilder, BuildsAConfiguredCluster) {
  const auto c = ClusterBuilder(3)
                     .window(4)
                     .net([] {
                       net::McConfig n;
                       n.delay = net::DelayModel::fixed(100_us);
                       n.buffer_capacity = 4096;
                       return n;
                     }())
                     .build();
  EXPECT_EQ(c->size(), 3u);
  EXPECT_EQ(c->entity(0).config().window, 4u);
  c->submit_text(0, "hello");
  ASSERT_TRUE(c->run_until_delivered(1'000 * sim::kMillisecond));
  EXPECT_EQ(c->deliveries(1).size(), 1u);
  EXPECT_EQ(c->check_co_service(), std::nullopt);
}

TEST(ClusterBuilder, ConfigPreservesTheBuilderN) {
  CoConfig cfg;  // n deliberately unset (0)
  cfg.window = 2;
  const auto c = ClusterBuilder(4)
                     .config(cfg)
                     .net(small_options().net)
                     .build();
  EXPECT_EQ(c->size(), 4u);
  EXPECT_EQ(c->entity(0).config().window, 2u);
}

TEST(ClusterBuilder, RejectsInvalidConfigAtBuild) {
  EXPECT_THROW((void)ClusterBuilder(1).build(), std::logic_error);  // n < 2
}

TEST(ClusterBuilder, EquivalentToDirectConstruction) {
  // The builder is sugar over ClusterOptions; a run through each must be
  // deterministic and identical.
  CoCluster direct(small_options());
  const auto built = ClusterBuilder(3)
                         .config(small_options().proto)
                         .net(small_options().net)
                         .build();
  for (auto* c : {&direct, built.get()}) {
    c->submit_text(0, "a");
    c->submit_text(1, "b");
    ASSERT_TRUE(c->run_until_delivered(1'000 * sim::kMillisecond));
  }
  EXPECT_EQ(direct.all_delivered_keys(), built->all_delivered_keys());
  EXPECT_EQ(direct.scheduler().now(), built->scheduler().now());
  EXPECT_EQ(direct.network().stats().pdus_sent,
            built->network().stats().pdus_sent);
}

TEST(ClusterBuilder, UserObserverSeesEveryMilestoneAfterBookkeeping) {
  EventLog log;
  const auto c = ClusterBuilder(3)
                     .config(small_options().proto)
                     .net(small_options().net)
                     .observer(&log)
                     .build();
  c->submit_text(0, "observed");
  ASSERT_TRUE(c->run_until_delivered(1'000 * sim::kMillisecond));
  std::size_t sends = 0, accepts = 0, stages = 0;
  for (const auto& e : log.events) {
    sends += e.rfind("send", 0) == 0;
    accepts += e.rfind("accept", 0) == 0;
    stages += e.rfind("stage", 0) == 0;
  }
  EXPECT_GE(sends, 1u);       // the data PDU, at least
  EXPECT_GE(accepts, 3u);     // accepted at every entity
  EXPECT_GE(stages, 3u);      // lifecycle milestones flow to the tap
  // The cluster's own bookkeeping ran too (delivery logs are its job).
  EXPECT_EQ(c->deliveries(1).size(), 1u);
}

// Regression: DstMask is 64 bits wide. Clusters beyond 64 entities used to
// hit undefined-behaviour shifts (read: silent truncation) the moment any
// code asked about E_64; now broadcast works at any n and selective masks
// are rejected loudly (CoConfig::validate documents the boundary).
TEST(DstMaskWidth, BroadcastWorksBeyondSixtyFourEntities) {
  ClusterOptions o = small_options();
  o.proto.n = 65;
  // The flow condition admits min(W, minBUF / (H*2n)) PDUs: at n=65 the
  // default buffer assumptions floor that to zero, so size buffers for n.
  o.proto.assumed_peer_buffer = 1u << 16;
  o.net.buffer_capacity = 1u << 16;
  o.record_trace = false;
  CoCluster c(o);
  for (EntityId e = 64; e < 65; ++e)
    EXPECT_TRUE(dst_contains(kEveryone, e));
  c.submit_text(64, "from the far side");
  ASSERT_TRUE(c.run_until_delivered(10'000 * sim::kMillisecond));
  EXPECT_EQ(c.deliveries(0).size(), 1u);
  EXPECT_EQ(c.deliveries(63).size(), 1u);
}

TEST(DstMaskWidth, SelectiveMasksAreRejectedInOversizedClusters) {
  ClusterOptions o = small_options();
  o.proto.n = 65;
  o.record_trace = false;
  CoCluster c(o);
  EXPECT_THROW(c.submit(0, {1, 2, 3}, dst_of({1, 2})), std::logic_error);
}

TEST(DstMaskWidth, EntitiesPastTheMaskAreNeverSelectiveDestinations) {
  // A selective mask cannot name E_64+; dst_contains must say "no", not
  // shift by >= 64 (UB) and answer garbage.
  const DstMask some = dst_of({0, 63});
  EXPECT_TRUE(dst_contains(some, 0));
  EXPECT_TRUE(dst_contains(some, 63));
  EXPECT_FALSE(dst_contains(some, 64));
  EXPECT_FALSE(dst_contains(some, 200));
  EXPECT_THROW(dst_of({64}), std::logic_error);
}

}  // namespace
}  // namespace co::proto
