// Effect-level tests for the sans-io core: the exact ArmTimer/CancelTimer
// stream step() emits (re-arm, cancel-after-fire, pending cleared before
// dispatch) and the batch semantics (receipt pipeline once per batch,
// batch-of-one equivalent to the per-message path).
#include <gtest/gtest.h>

#include <vector>

#include "src/co/core.h"
#include "src/co/effects.h"

namespace co::proto {
namespace {

CoConfig config3() {
  CoConfig c;
  c.n = 3;
  c.window = 8;
  c.defer_timeout = 2 * time::kMillisecond;
  c.retransmit_timeout = 4 * time::kMillisecond;
  c.assumed_peer_buffer = 4096;
  return c;
}

CoPdu make(EntityId src, SeqNo seq, std::vector<SeqNo> ack,
           std::vector<std::uint8_t> data = {1}) {
  CoPdu p;
  p.cid = 1;
  p.src = src;
  p.seq = seq;
  p.ack = std::move(ack);
  p.buf = 4096;
  p.data = std::move(data);
  return p;
}

Input arrival(EntityId from, CoPdu pdu, time::Tick at = 0) {
  return Input{at, 4096, MessageArrived{from, Message(std::move(pdu))}};
}

Input submit(std::vector<std::uint8_t> data, time::Tick at = 0) {
  return Input{at, 4096, AppSubmit{std::move(data), kEveryone}};
}

Input timer(TimerId id, time::Tick at) {
  return Input{at, 4096, TimerFired{id}};
}

// Effect-kind counters for assertions on the emitted stream shape.
struct Shape {
  std::size_t broadcasts = 0;
  std::size_t delivers = 0;
  std::vector<ArmTimerEffect> arms;
  std::vector<CancelTimerEffect> cancels;
};

Shape shape_of(const EffectBatch& out) {
  Shape s;
  for (const Effect& e : out) {
    if (std::holds_alternative<BroadcastEffect>(e)) ++s.broadcasts;
    if (std::holds_alternative<DeliverEffect>(e)) ++s.delivers;
    if (const auto* a = std::get_if<ArmTimerEffect>(&e)) s.arms.push_back(*a);
    if (const auto* c = std::get_if<CancelTimerEffect>(&e))
      s.cancels.push_back(*c);
  }
  return s;
}

TEST(EffectCore, AcceptArmsDeferWithAbsoluteDeadline) {
  CoConfig cfg = config3();
  CoCore core(0, cfg);
  EffectBatch out;
  const time::Tick at = 5 * time::kMillisecond;
  core.step(arrival(1, make(1, 1, {1, 2, 1}), at), out);
  const Shape s = shape_of(out);
  EXPECT_EQ(s.broadcasts, 0u);  // confirmation deferred to the timer
  ASSERT_EQ(s.arms.size(), 1u);
  EXPECT_EQ(s.arms[0].timer, TimerId::kDefer);
  // The effect carries an ABSOLUTE deadline in the driver's clock domain.
  EXPECT_EQ(s.arms[0].deadline, at + cfg.defer_timeout);
  EXPECT_TRUE(core.timer_pending(TimerId::kDefer));
  EXPECT_TRUE(s.cancels.empty());
}

TEST(EffectCore, TimerFiredClearsPendingBeforeDispatch) {
  // The core clears its pending flag BEFORE running the handler (mirroring
  // the scheduler, which marks an event cancelled before invoking it). The
  // observable consequence: a handler that transmits and re-arms emits NO
  // CancelTimer — the slot is already free — just Broadcast then ArmTimer.
  CoConfig cfg = config3();
  CoCore core(0, cfg);
  EffectBatch out;
  core.step(arrival(1, make(1, 1, {1, 2, 1})), out);
  ASSERT_TRUE(core.timer_pending(TimerId::kDefer));

  out.clear();
  core.step(timer(TimerId::kDefer, cfg.defer_timeout), out);
  const Shape s = shape_of(out);
  EXPECT_EQ(s.broadcasts, 1u);  // the deferred confirmation
  EXPECT_TRUE(s.cancels.empty()) << "re-arm after fire must not cancel";
  ASSERT_EQ(s.arms.size(), 1u);  // tail-loss probe re-armed
  EXPECT_EQ(s.arms[0].deadline, cfg.defer_timeout + cfg.defer_timeout);
  EXPECT_TRUE(core.timer_pending(TimerId::kDefer));
}

TEST(EffectCore, TransmitCancelsPendingDeferBeforeRearming) {
  // A send while the defer timer is pending resets it: the core emits
  // CancelTimer, then the Broadcast, then a fresh ArmTimer — in that order,
  // so a driver replaying sequentially never observes two armed defers.
  CoCore core(0, config3());
  EffectBatch out;
  core.step(arrival(1, make(1, 1, {1, 2, 1})), out);
  ASSERT_TRUE(core.timer_pending(TimerId::kDefer));

  out.clear();
  core.step(submit({42}), out);
  ASSERT_GE(out.size(), 3u);
  EXPECT_TRUE(std::holds_alternative<CancelTimerEffect>(out[0]));
  EXPECT_TRUE(std::holds_alternative<BroadcastEffect>(out[1]));
  const auto* rearm = std::get_if<ArmTimerEffect>(&out[out.size() - 1]);
  ASSERT_NE(rearm, nullptr);
  EXPECT_EQ(rearm->timer, TimerId::kDefer);
  EXPECT_TRUE(core.timer_pending(TimerId::kDefer));
}

TEST(EffectCore, PureSubmitEmitsBroadcastOnly) {
  // No receipt state, no peers heard: a bare submit broadcasts the data PDU
  // and arms nothing (no data interest until the loopback copy arrives).
  CoCore core(0, config3());
  EffectBatch out;
  core.step(submit({7}), out);
  const Shape s = shape_of(out);
  EXPECT_EQ(s.broadcasts, 1u);
  EXPECT_TRUE(s.arms.empty());
  EXPECT_TRUE(s.cancels.empty());
  EXPECT_FALSE(core.timer_pending(TimerId::kDefer));
}

TEST(EffectCore, GapArmsRetransmitAndRefiresWithoutCancel) {
  CoConfig cfg = config3();
  CoCore core(0, cfg);
  EffectBatch out;
  core.step(arrival(1, make(1, 3, {1, 4, 1})), out);  // F(1): 1..2 missing
  Shape s = shape_of(out);
  EXPECT_EQ(s.broadcasts, 1u);  // the RET request
  ASSERT_GE(s.arms.size(), 1u);
  EXPECT_EQ(s.arms[0].timer, TimerId::kRetransmit);
  EXPECT_EQ(s.arms[0].deadline, cfg.retransmit_timeout);
  EXPECT_TRUE(core.timer_pending(TimerId::kRetransmit));

  // Fire: the gap persists, so the handler re-requests and re-arms. Pending
  // was cleared pre-dispatch, so again no CancelTimer in the stream.
  out.clear();
  core.step(timer(TimerId::kRetransmit, cfg.retransmit_timeout), out);
  s = shape_of(out);
  EXPECT_EQ(s.broadcasts, 1u);  // re-requested RET
  EXPECT_TRUE(s.cancels.empty());
  ASSERT_EQ(s.arms.size(), 1u);
  EXPECT_EQ(s.arms[0].timer, TimerId::kRetransmit);
  EXPECT_EQ(s.arms[0].deadline, 2 * cfg.retransmit_timeout);
}

TEST(EffectCore, StaleRetransmitFireIsSilent) {
  // The retransmit timer is never cancelled when a gap fills; the stale
  // fire must be a no-op: no broadcasts, no re-arm (cancel-after-fire is
  // the DRIVER's no-op; this is the core-side half of that contract).
  CoConfig cfg = config3();
  CoCore core(0, cfg);
  EffectBatch out;
  core.step(arrival(1, make(1, 2, {1, 3, 1})), out);  // gap: seq 1 missing
  ASSERT_TRUE(core.timer_pending(TimerId::kRetransmit));
  out.clear();
  core.step(arrival(1, make(1, 1, {1, 2, 1})), out);  // gap fills
  out.clear();
  core.step(timer(TimerId::kRetransmit, cfg.retransmit_timeout), out);
  const Shape s = shape_of(out);
  EXPECT_EQ(s.broadcasts, 0u);
  EXPECT_TRUE(s.arms.empty());
  EXPECT_FALSE(core.timer_pending(TimerId::kRetransmit));
}

TEST(EffectCore, BatchRunsReceiptPipelineOnce) {
  // n=2: every accepted PDU from the single peer satisfies heard-all, so
  // the per-message pipeline sends one confirmation per arrival. Batching
  // runs the pipeline once at the end of the batch: two arrivals in one
  // step produce ONE confirmation covering both — the amortization the
  // batch API exists for.
  CoConfig cfg = config3();
  cfg.n = 2;
  CoCore batched(0, cfg);
  CoCore sequential(0, cfg);

  EffectBatch out_b;
  const Input batch[] = {arrival(1, make(1, 1, {1, 2})),
                         arrival(1, make(1, 2, {1, 3}))};
  batched.step(batch, 2, out_b);

  EffectBatch out_s;
  sequential.step(arrival(1, make(1, 1, {1, 2})), out_s);
  sequential.step(arrival(1, make(1, 2, {1, 3})), out_s);

  const Shape sb = shape_of(out_b);
  const Shape ss = shape_of(out_s);
  EXPECT_EQ(sb.broadcasts, 1u) << "batch: one confirmation for the batch";
  EXPECT_EQ(ss.broadcasts, 2u) << "sequential: one confirmation per message";
  EXPECT_EQ(batched.stats().ctrl_pdus_sent, 1u);
  EXPECT_EQ(sequential.stats().ctrl_pdus_sent, 2u);
  // The protocol state converges apart from the SEQs those extra ctrl PDUs
  // consumed: both cores accepted both PDUs and owe nothing further.
  EXPECT_EQ(batched.req(1), sequential.req(1));
  EXPECT_EQ(batched.stats().pdus_accepted, sequential.stats().pdus_accepted);
  EXPECT_LT(batched.next_seq(), sequential.next_seq());
}

TEST(EffectCore, BatchOfOneMatchesSequentialExactly) {
  // With one input per step the batch path IS the per-message path: every
  // effect, in order, must match. This is the bit-identity the simulated
  // cluster's driver (and the digest-stability acceptance gate) rides on.
  CoConfig cfg = config3();
  CoCore a(0, cfg);
  CoCore b(0, cfg);
  const Input inputs[] = {
      submit({1}),
      arrival(1, make(1, 1, {1, 2, 1})),
      arrival(1, make(1, 3, {1, 4, 1})),  // gap
      timer(TimerId::kDefer, cfg.defer_timeout),
      arrival(1, make(1, 2, {1, 3, 1})),  // fill
  };
  EffectBatch out_a, out_b;
  for (const Input& in : inputs) {
    out_a.clear();
    a.step(in, out_a);  // convenience single-input overload
    out_b.clear();
    b.step(&in, 1, out_b);  // explicit batch of one
    ASSERT_EQ(out_a.size(), out_b.size());
    for (std::size_t i = 0; i < out_a.size(); ++i)
      EXPECT_EQ(out_a[i].index(), out_b[i].index()) << "effect " << i;
  }
  EXPECT_EQ(a.next_seq(), b.next_seq());
  EXPECT_EQ(a.stats().pdus_accepted, b.stats().pdus_accepted);
}

TEST(EffectCore, SeqBeyondTheParkSpanIsDroppedAsMalformed) {
  // A PDU from a valid peer whose SEQ lies 2^21 past REQ (a forged or
  // corrupted datagram) used to throw out of the park buffer. It is dropped
  // before it raises F1, moves known_max or reaches the F(2) ACK scan.
  CoCore core(0, config3());
  EffectBatch out;
  core.step(arrival(1, make(1, SeqNo{1} << 21, {9, 9, 9}), 100), out);
  EXPECT_TRUE(out.empty());
  ASSERT_EQ(out.records.size(), 1u);
  EXPECT_EQ(out.records[0].event,
            static_cast<std::uint16_t>(cat::CatId::kMalformed));
  EXPECT_EQ(out.records[0].at, 100);
  EXPECT_EQ(out.records[0].actor, 0);
  EXPECT_EQ(core.stats().malformed_dropped, 1u);
  EXPECT_EQ(core.stats().f1_detections, 0u);
  EXPECT_EQ(core.stats().f2_detections, 0u);
  EXPECT_EQ(core.stats().parked_out_of_order, 0u);
  EXPECT_FALSE(core.timer_pending(TimerId::kRetransmit));

  // The last SEQ the park buffer spans is still parked as an ordinary gap.
  out.clear();
  core.step(arrival(1, make(1, (SeqNo{1} << 20), {1, 2, 1}), 200), out);
  EXPECT_EQ(core.stats().malformed_dropped, 1u);
  EXPECT_EQ(core.stats().parked_out_of_order, 1u);

  // The stream from E1 itself is unharmed.
  out.clear();
  core.step(arrival(1, make(1, 1, {1, 2, 1}), 300), out);
  EXPECT_EQ(core.req(1), 2u);
}

TEST(EffectCore, StepIsNotReentrantButRecoversAfterThrow) {
  // A malformed input throws out of step(); the core must reject the input
  // batch without wedging — the next step() must not trip the reentrancy
  // guard.
  CoCore core(0, config3());
  EffectBatch out;
  EXPECT_THROW(core.step(arrival(2, make(1, 1, {1, 1, 1})), out),
               std::logic_error);  // src != channel
  out.clear();
  core.step(arrival(1, make(1, 1, {1, 2, 1})), out);  // fine afterwards
  EXPECT_EQ(core.req(1), 2u);
}

}  // namespace
}  // namespace co::proto
