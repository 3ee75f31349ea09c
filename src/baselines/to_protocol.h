// TO protocol baseline — Takizawa's cluster-control total-ordering protocol
// family (paper references [14,15,17]).
//
// The paper positions the TO protocols as: (a) running on a ONE-CHANNEL
// network (Ethernet) where every entity observes surviving PDUs in the same
// global order, and (b) recovering losses with the GO-BACK-N scheme, where
// "all PDUs preceding [read: following] the lost PDU are retransmitted" and
// out-of-order arrivals are discarded rather than parked.
//
// This baseline reproduces exactly the two characteristics the evaluation
// compares against:
//   * go-back-n: a receiver detecting a gap in a source's sequence numbers
//     discards every later PDU from that source and asks it to resend its
//     whole stream from the gap — retransmission volume grows with the
//     in-flight window, not with the number of losses (experiments E6, E8);
//   * one-channel substrate: with no losses, every entity's delivery log is
//     the identical global channel order (the TO service), which tests
//     verify via OneChannelNetwork::channel_log().
#pragma once

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "src/baselines/hooks.h"
#include "src/causality/pdu_key.h"
#include "src/common/types.h"
#include "src/sim/time.h"

namespace co::baselines {

struct ToPdu {
  EntityId src = kNoEntity;
  SeqNo seq = 0;
  std::vector<std::uint8_t> data;

  causality::PduKey key() const { return causality::PduKey{src, seq}; }
};

/// NAK asking `lsrc` to go back to `from` and resend everything since.
struct ToRet {
  EntityId src = kNoEntity;
  EntityId lsrc = kNoEntity;
  SeqNo from = 0;
};

/// Periodic stream-status broadcast: "I have sent PDUs up to next_seq".
/// Without it a lost FINAL PDU is undetectable (nothing later reveals its
/// existence); the real TO protocols piggyback this on their confirmation
/// traffic.
struct ToStatus {
  EntityId src = kNoEntity;
  SeqNo next_seq = kFirstSeq;
};

using ToMessage = std::variant<ToPdu, ToRet, ToStatus>;

struct ToStats {
  std::uint64_t data_pdus_sent = 0;
  std::uint64_t ret_pdus_sent = 0;
  std::uint64_t retransmissions_sent = 0;  // go-back-n resends
  std::uint64_t discarded_out_of_order = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t delivered = 0;
  std::uint64_t processing_ns = 0;

  ToStats& operator+=(const ToStats& o) {
    data_pdus_sent += o.data_pdus_sent;
    ret_pdus_sent += o.ret_pdus_sent;
    retransmissions_sent += o.retransmissions_sent;
    discarded_out_of_order += o.discarded_out_of_order;
    duplicates_dropped += o.duplicates_dropped;
    delivered += o.delivered;
    processing_ns += o.processing_ns;
    return *this;
  }
};

class ToEntity {
 public:
  using Message = ToMessage;
  using Hooks = EntityHooks<ToMessage, ToPdu>;

  ToEntity(EntityId self, std::size_t n, Hooks hooks,
           sim::SimDuration nak_timeout = 2 * sim::kMillisecond);

  EntityId self() const { return self_; }
  const ToStats& stats() const { return stats_; }
  /// SEQ the next broadcast will carry.
  SeqNo next_seq() const { return seq_; }

  void broadcast(std::vector<std::uint8_t> data);
  void on_message(EntityId from, const ToMessage& msg);

 private:
  void handle_pdu(const ToPdu& pdu);
  void handle_ret(const ToRet& ret);
  void handle_status(const ToStatus& status);
  void request_go_back(EntityId lsrc, SeqNo from);
  void on_nak_timer();
  void on_status_timer();

  EntityId self_;
  std::size_t n_;
  sim::SimDuration nak_timeout_;
  Hooks hooks_;
  SeqNo seq_ = kFirstSeq;
  std::vector<SeqNo> req_;        // next expected per source
  std::vector<SeqNo> known_max_;  // highest SEQ seen per source
  std::vector<ToPdu> sl_;         // full sent log (never pruned; go-back-n
                                  // has no distributed-ack machinery here)
  // NAK suppression: at most one outstanding go-back request per source
  // (without it every discarded PDU would trigger a full-stream resend).
  std::vector<std::optional<SeqNo>> nak_outstanding_;
  bool nak_timer_armed_ = false;
  ToStats stats_;
};

}  // namespace co::baselines
