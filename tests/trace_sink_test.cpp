// Tests: the record-digest trace sink and the protocol event trace as
// binary records.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/driver/cluster.h"
#include "src/obs/trace/digest.h"
#include "src/obs/trace/tracer.h"

namespace co {
namespace {

using obs::trace::DigestSink;
using obs::trace::EventId;
using obs::trace::Record;
using sim::literals::operator""_us;

Record record(std::uint64_t i) {
  Record r;
  r.at = static_cast<time::Tick>(1000 * i);
  r.seq = i;
  r.origin = static_cast<EntityId>(i % 3);
  r.actor = static_cast<EntityId>(i % 2);
  r.event = static_cast<std::uint16_t>(EventId::kAccept);
  r.arg = static_cast<std::uint32_t>(i * 7);
  return r;
}

TEST(DigestSink, TailKeepsOnlyTheNewestRecords) {
  DigestSink sink(4);
  std::vector<Record> batch;
  for (std::uint64_t i = 0; i < 10; ++i) batch.push_back(record(i));
  sink.on_records(0, batch.data(), batch.size(), 0);
  EXPECT_EQ(sink.records(), 10u);
  const std::vector<Record> tail = sink.tail();
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front().seq, 6u);
  EXPECT_EQ(tail.back().seq, 9u);
  EXPECT_EQ(sink.tail_dropped(), 6u);
}

TEST(DigestSink, RefoldingTheTailReproducesTheDigest) {
  // The digest depends on record content and order only: batch boundaries
  // and the writer stream id do not enter it.
  DigestSink live(16), refold;
  for (std::uint64_t i = 0; i < 5; ++i) {
    const Record r = record(i);
    live.on_records(static_cast<std::uint16_t>(i), &r, 1, 0);
  }
  const std::vector<Record> tail = live.tail();
  refold.on_records(7, tail.data(), tail.size(), 0);
  EXPECT_EQ(refold.records(), 5u);
  EXPECT_EQ(refold.digest(), live.digest());

  // Every other field does: change one, or swap two records, and it moves.
  for (int field = 0; field < 6; ++field) {
    std::vector<Record> changed = tail;
    Record& r = changed[2];
    switch (field) {
      case 0: ++r.at; break;
      case 1: ++r.seq; break;
      case 2: ++r.origin; break;
      case 3: ++r.actor; break;
      case 4: ++r.event; break;
      default: ++r.arg;
    }
    DigestSink other;
    other.on_records(0, changed.data(), changed.size(), 0);
    EXPECT_NE(other.digest(), live.digest()) << "field " << field;
  }
  std::vector<Record> swapped = tail;
  std::swap(swapped[1], swapped[2]);
  DigestSink reordered;
  reordered.on_records(0, swapped.data(), swapped.size(), 0);
  EXPECT_NE(reordered.digest(), live.digest());
}

proto::ClusterOptions lossy_options() {
  proto::ClusterOptions o;
  o.proto.n = 3;
  o.net.delay = net::DelayModel::fixed(100_us);
  o.net.buffer_capacity = 1024;
  return o;
}

TEST(ProtocolTrace, ClusterEmitsLifecycleEvents) {
  obs::trace::TracerConfig config;
  config.ring_capacity = 1u << 14;
  obs::trace::Tracer tracer(config);
  const auto c = proto::ClusterBuilder(3)
                     .config(lossy_options().proto)
                     .net(lossy_options().net)
                     .tracer(&tracer)
                     .build();
  c->network().force_drop(0, 2, 1);
  c->submit_text(0, "a");
  c->submit_text(0, "b");
  ASSERT_TRUE(c->run_until_delivered(60'000 * sim::kMillisecond));
  ASSERT_EQ(tracer.dropped(), 0u);
  std::map<EventId, std::size_t> count;
  for (const Record& r : tracer.snapshot()) ++count[static_cast<EventId>(r.event)];
  // The full lifecycle appears: send, accept, loss detection, RET,
  // retransmission, pre-ack, ack, delivery.
  for (const EventId e :
       {EventId::kSend, EventId::kAccept, EventId::kPack, EventId::kAck,
        EventId::kDeliver, EventId::kRet, EventId::kRtx}) {
    EXPECT_GT(count[e], 0u) << "missing event " << obs::trace::event_name(e);
  }
  // Loss was detected via F(1) (gap on next PDU) or F(2) (via confirmation).
  EXPECT_GT(count[EventId::kF1] + count[EventId::kF2], 0u);
}

TEST(ProtocolTrace, NoSinkMeansNoEvents) {
  proto::ClusterOptions o;
  o.proto.n = 2;
  o.net.delay = net::DelayModel::fixed(100_us);
  o.net.buffer_capacity = 1024;
  proto::CoCluster c(o);  // no tracer attached
  c.submit_text(0, "x");
  EXPECT_TRUE(c.run_until_delivered(10'000 * sim::kMillisecond));
}

/// Record digest of one small run; `drop` destroys the next E0->E2 copy.
std::uint64_t record_digest(bool drop) {
  DigestSink digest;
  obs::trace::TracerConfig streaming;
  streaming.overwrite_oldest = false;
  obs::trace::Tracer tracer(streaming, &digest);
  proto::ClusterOptions o = lossy_options();
  o.tracer = &tracer;
  proto::CoCluster c(o);
  if (drop) c.network().force_drop(0, 2, 1);
  c.submit_text(0, "a");
  c.submit_text(1, "b");
  EXPECT_TRUE(c.run_until_delivered(60'000 * sim::kMillisecond));
  tracer.flush();
  EXPECT_GT(digest.records(), 0u);
  return digest.digest();
}

TEST(ProtocolTrace, RecordDigestIsDeterministicAndSeesOneDrop) {
  EXPECT_EQ(record_digest(false), record_digest(false));
  EXPECT_EQ(record_digest(true), record_digest(true));
  EXPECT_NE(record_digest(true), record_digest(false));
}

}  // namespace
}  // namespace co
