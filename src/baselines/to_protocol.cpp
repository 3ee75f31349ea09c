#include "src/baselines/to_protocol.h"

#include "src/common/expect.h"
#include "src/common/wall_clock.h"

namespace co::baselines {

ToEntity::ToEntity(EntityId self, std::size_t n, Hooks hooks,
                   sim::SimDuration nak_timeout)
    : self_(self), n_(n), nak_timeout_(nak_timeout), hooks_(std::move(hooks)) {
  CO_EXPECT(n >= 2);
  CO_EXPECT(self >= 0 && static_cast<std::size_t>(self) < n);
  CO_EXPECT(hooks_.broadcast && hooks_.deliver && hooks_.schedule);
  req_.assign(n, kFirstSeq);
  known_max_.assign(n, 0);
  nak_outstanding_.assign(n, std::nullopt);
  hooks_.schedule(nak_timeout_, [this] { on_status_timer(); });
}

void ToEntity::broadcast(std::vector<std::uint8_t> data) {
  ToPdu p;
  p.src = self_;
  p.seq = seq_++;
  p.data = std::move(data);
  sl_.push_back(p);
  ++stats_.data_pdus_sent;
  hooks_.broadcast(ToMessage(std::move(p)));
}

void ToEntity::on_message(EntityId from, const ToMessage& msg) {
  const std::uint64_t t0 = wall_ns();
  if (const auto* pdu = std::get_if<ToPdu>(&msg)) {
    CO_EXPECT(pdu->src == from);
    handle_pdu(*pdu);
  } else if (const auto* ret = std::get_if<ToRet>(&msg)) {
    handle_ret(*ret);
  } else {
    handle_status(std::get<ToStatus>(msg));
  }
  stats_.processing_ns += wall_ns() - t0;
}

void ToEntity::handle_status(const ToStatus& status) {
  if (status.src == self_ || status.next_seq == 0) return;
  const auto j = static_cast<std::size_t>(status.src);
  known_max_[j] = std::max(known_max_[j], status.next_seq - 1);
  if (req_[j] <= known_max_[j]) request_go_back(status.src, req_[j]);
}

void ToEntity::on_status_timer() {
  // Announce our stream's high watermark so receivers can detect a lost
  // tail; unconditional (the previous status may itself have been lost).
  // Re-arms forever; the harness bounds the run.
  if (seq_ > kFirstSeq) hooks_.broadcast(ToMessage(ToStatus{self_, seq_}));
  hooks_.schedule(nak_timeout_, [this] { on_status_timer(); });
}

void ToEntity::handle_pdu(const ToPdu& pdu) {
  const auto j = static_cast<std::size_t>(pdu.src);
  known_max_[j] = std::max(known_max_[j], pdu.seq);
  if (pdu.seq < req_[j]) {
    ++stats_.duplicates_dropped;
    return;
  }
  if (pdu.seq > req_[j]) {
    // Go-back-n: out-of-order PDUs are DISCARDED, not parked; the source
    // must resend everything from the gap onward.
    ++stats_.discarded_out_of_order;
    request_go_back(pdu.src, req_[j]);
    return;
  }
  req_[j] = pdu.seq + 1;
  nak_outstanding_[j].reset();  // the gap (if any) is filling in order
  ++stats_.delivered;
  hooks_.deliver(pdu);
}

void ToEntity::handle_ret(const ToRet& ret) {
  if (ret.lsrc != self_) return;
  // Go-back-n retransmission: resend EVERY PDU from `from` through the end
  // of our sent log (this is the cost the CO protocol's selective scheme
  // avoids).
  const SeqNo from = std::max(ret.from, kFirstSeq);
  for (SeqNo s = from; s < seq_; ++s) {
    ++stats_.retransmissions_sent;
    hooks_.broadcast(ToMessage(sl_[static_cast<std::size_t>(s - kFirstSeq)]));
  }
}

void ToEntity::request_go_back(EntityId lsrc, SeqNo from) {
  auto& pending = nak_outstanding_[static_cast<std::size_t>(lsrc)];
  if (pending && *pending >= from) {
    // Already asked this source to go back at least this far.
    if (!nak_timer_armed_) {
      nak_timer_armed_ = true;
      hooks_.schedule(nak_timeout_, [this] { on_nak_timer(); });
    }
    return;
  }
  pending = from;
  ++stats_.ret_pdus_sent;
  hooks_.broadcast(ToMessage(ToRet{self_, lsrc, from}));
  if (!nak_timer_armed_) {
    nak_timer_armed_ = true;
    hooks_.schedule(nak_timeout_, [this] { on_nak_timer(); });
  }
}

void ToEntity::on_nak_timer() {
  nak_timer_armed_ = false;
  for (std::size_t j = 0; j < n_; ++j) {
    if (j == static_cast<std::size_t>(self_)) continue;
    if (req_[j] <= known_max_[j]) {
      nak_outstanding_[j].reset();  // stale; the recovery evidently failed
      request_go_back(static_cast<EntityId>(j), req_[j]);
    }
  }
}

}  // namespace co::baselines
