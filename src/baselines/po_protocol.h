// PO protocol baseline — the authors' earlier "partially ordering broadcast"
// protocol (paper reference [16]), which provides the LO (locally ordering)
// service: PDUs from each source are delivered in sending order, but there
// is NO cross-source causal ordering.
//
// Mechanically it shares the CO protocol's transport machinery (per-source
// sequence numbers, ACK-vector loss detection, selective retransmission)
// but delivers on ACCEPTANCE — no pre-acknowledgment / acknowledgment
// phases, no CPI. Tests use it as the negative control: it preserves local
// order yet demonstrably violates causal order on the MC network, which is
// precisely the gap the CO protocol closes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <variant>
#include <vector>

#include "src/baselines/hooks.h"
#include "src/causality/pdu_key.h"
#include "src/common/types.h"
#include "src/sim/time.h"

namespace co::baselines {

struct PoPdu {
  EntityId src = kNoEntity;
  SeqNo seq = 0;
  std::vector<SeqNo> ack;  // next expected per source (loss detection only)
  std::vector<std::uint8_t> data;

  causality::PduKey key() const { return causality::PduKey{src, seq}; }
};

struct PoRet {
  EntityId src = kNoEntity;
  EntityId lsrc = kNoEntity;
  SeqNo from = 0;
  SeqNo upto = 0;  // exclusive
};

using PoMessage = std::variant<PoPdu, PoRet>;

struct PoStats {
  std::uint64_t data_pdus_sent = 0;
  std::uint64_t ret_pdus_sent = 0;
  std::uint64_t retransmissions_sent = 0;
  std::uint64_t parked_out_of_order = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t delivered = 0;
  std::uint64_t processing_ns = 0;

  PoStats& operator+=(const PoStats& o) {
    data_pdus_sent += o.data_pdus_sent;
    ret_pdus_sent += o.ret_pdus_sent;
    retransmissions_sent += o.retransmissions_sent;
    parked_out_of_order += o.parked_out_of_order;
    duplicates_dropped += o.duplicates_dropped;
    delivered += o.delivered;
    processing_ns += o.processing_ns;
    return *this;
  }
};

class PoEntity {
 public:
  using Message = PoMessage;
  using Hooks = EntityHooks<PoMessage, PoPdu>;

  PoEntity(EntityId self, std::size_t n, Hooks hooks,
           sim::SimDuration nak_timeout = 2 * sim::kMillisecond);

  EntityId self() const { return self_; }
  const PoStats& stats() const { return stats_; }
  /// SEQ the next broadcast will carry.
  SeqNo next_seq() const { return seq_; }

  void broadcast(std::vector<std::uint8_t> data);
  void on_message(EntityId from, const PoMessage& msg);

 private:
  void handle_pdu(const PoPdu& pdu);
  void handle_ret(const PoRet& ret);
  void accept(const PoPdu& pdu);
  void report_loss(EntityId lsrc, SeqNo upto);
  void on_nak_timer();

  EntityId self_;
  std::size_t n_;
  sim::SimDuration nak_timeout_;
  Hooks hooks_;
  SeqNo seq_ = kFirstSeq;
  std::vector<SeqNo> req_;
  std::vector<SeqNo> known_max_;
  std::vector<std::map<SeqNo, PoPdu>> parked_;
  std::vector<std::optional<SeqNo>> nak_outstanding_;
  std::vector<PoPdu> sl_;
  bool nak_timer_armed_ = false;
  PoStats stats_;
};

}  // namespace co::baselines
