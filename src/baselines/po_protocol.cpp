#include "src/baselines/po_protocol.h"

#include "src/common/expect.h"
#include "src/common/wall_clock.h"

namespace co::baselines {

PoEntity::PoEntity(EntityId self, std::size_t n, Hooks hooks,
                   sim::SimDuration nak_timeout)
    : self_(self), n_(n), nak_timeout_(nak_timeout), hooks_(std::move(hooks)) {
  CO_EXPECT(n >= 2);
  CO_EXPECT(self >= 0 && static_cast<std::size_t>(self) < n);
  CO_EXPECT(hooks_.broadcast && hooks_.deliver && hooks_.schedule);
  req_.assign(n, kFirstSeq);
  known_max_.assign(n, 0);
  parked_.resize(n);
  nak_outstanding_.assign(n, std::nullopt);
}

void PoEntity::broadcast(std::vector<std::uint8_t> data) {
  PoPdu p;
  p.src = self_;
  p.seq = seq_++;
  p.ack = req_;
  p.data = std::move(data);
  sl_.push_back(p);
  ++stats_.data_pdus_sent;
  hooks_.broadcast(PoMessage(std::move(p)));
}

void PoEntity::on_message(EntityId from, const PoMessage& msg) {
  const std::uint64_t t0 = wall_ns();
  if (const auto* pdu = std::get_if<PoPdu>(&msg)) {
    CO_EXPECT(pdu->src == from);
    handle_pdu(*pdu);
  } else {
    handle_ret(std::get<PoRet>(msg));
  }
  stats_.processing_ns += wall_ns() - t0;
}

void PoEntity::handle_pdu(const PoPdu& pdu) {
  const auto j = static_cast<std::size_t>(pdu.src);
  known_max_[j] = std::max(known_max_[j], pdu.seq);
  for (std::size_t k = 0; k < n_; ++k) {
    if (pdu.ack[k] > 0)
      known_max_[k] = std::max(known_max_[k], pdu.ack[k] - 1);
    // F(2)-style: the sender has accepted PDUs from E_k we do not have.
    if (k != static_cast<std::size_t>(self_) && k != j &&
        req_[k] < pdu.ack[k])
      report_loss(static_cast<EntityId>(k), pdu.ack[k]);
  }

  if (pdu.seq < req_[j]) {
    ++stats_.duplicates_dropped;
    return;
  }
  if (pdu.seq > req_[j]) {
    // Selective repeat: park and request only the hole.
    if (parked_[j].emplace(pdu.seq, pdu).second)
      ++stats_.parked_out_of_order;
    report_loss(pdu.src, parked_[j].begin()->first);
    return;
  }
  accept(pdu);
  auto& parked = parked_[j];
  while (!parked.empty() && parked.begin()->first == req_[j]) {
    accept(parked.begin()->second);
    parked.erase(parked.begin());
  }
}

void PoEntity::accept(const PoPdu& pdu) {
  const auto j = static_cast<std::size_t>(pdu.src);
  req_[j] = pdu.seq + 1;
  nak_outstanding_[j].reset();
  // LO service: deliver immediately in per-source order — no causal wait.
  ++stats_.delivered;
  hooks_.deliver(pdu);
}

void PoEntity::handle_ret(const PoRet& ret) {
  if (ret.lsrc != self_) return;
  const SeqNo from = std::max(ret.from, kFirstSeq);
  const SeqNo upto = std::min(ret.upto, seq_);
  for (SeqNo s = from; s < upto; ++s) {
    ++stats_.retransmissions_sent;
    hooks_.broadcast(PoMessage(sl_[static_cast<std::size_t>(s - kFirstSeq)]));
  }
}

void PoEntity::report_loss(EntityId lsrc, SeqNo upto) {
  const auto j = static_cast<std::size_t>(lsrc);
  if (req_[j] >= upto) return;
  auto& pending = nak_outstanding_[j];
  if (pending && *pending >= upto) return;
  pending = upto;
  ++stats_.ret_pdus_sent;
  hooks_.broadcast(PoMessage(PoRet{self_, lsrc, req_[j], upto}));
  if (!nak_timer_armed_) {
    nak_timer_armed_ = true;
    hooks_.schedule(nak_timeout_, [this] { on_nak_timer(); });
  }
}

void PoEntity::on_nak_timer() {
  nak_timer_armed_ = false;
  for (std::size_t j = 0; j < n_; ++j) {
    if (j == static_cast<std::size_t>(self_)) continue;
    if (req_[j] <= known_max_[j]) {
      nak_outstanding_[j].reset();
      SeqNo upto = known_max_[j] + 1;
      if (!parked_[j].empty())
        upto = std::min(upto, parked_[j].begin()->first);
      report_loss(static_cast<EntityId>(j), upto);
    }
  }
}

}  // namespace co::baselines
