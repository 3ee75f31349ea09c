// ISIS CBCAST — the paper's primary comparator (reference [3]: Birman,
// Schiper & Stephenson, "Lightweight Causal and Atomic Group Multicast").
//
// Vector-clock causal broadcast over a *reliable* transport:
//   * sender ticks its vector clock and stamps the message;
//   * receiver i delivers m from j when VT_m[j] == V_i[j]+1 and
//     VT_m[k] <= V_i[k] for all k != j; otherwise m waits in a delay queue.
//
// Two properties the paper contrasts with the CO protocol, both measurable
// here:
//   * the ordering decision costs an O(n) vector comparison per queued
//     message per delivery (vs the CO protocol's O(1) sequence test per
//     pair), and the clocks must be carried and merged — "more computation
//     to synchronize the virtual clocks";
//   * the virtual clock CANNOT detect PDU loss: over a lossy network a
//     missing message stalls the delay queue silently and forever
//     (experiment E7b), whereas the CO protocol detects the loss from the
//     sequence numbers and recovers.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "src/baselines/hooks.h"
#include "src/causality/pdu_key.h"
#include "src/clocks/vector_clock.h"
#include "src/common/types.h"

namespace co::baselines {

struct CbcastMsg {
  EntityId src = kNoEntity;
  SeqNo seq = 0;  // per-source counter (== VT[src] at send); names the PDU
  clocks::VectorClock vt;
  std::vector<std::uint8_t> data;

  causality::PduKey key() const { return causality::PduKey{src, seq}; }
};

struct CbcastStats {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delayed = 0;           // went through the delay queue
  std::uint64_t delivery_checks = 0;   // vector-clock comparisons performed
  std::uint64_t processing_ns = 0;
  std::size_t max_delay_queue = 0;
};

class CbcastEntity {
 public:
  using Message = CbcastMsg;
  /// CBCAST has no timers: `hooks.schedule` is never called.
  using Hooks = EntityHooks<CbcastMsg, CbcastMsg>;

  CbcastEntity(EntityId self, std::size_t n, Hooks hooks);

  EntityId self() const { return self_; }
  const CbcastStats& stats() const { return stats_; }
  /// SEQ the next broadcast will carry (VT[self] after its tick).
  SeqNo next_seq() const { return vt_[static_cast<std::size_t>(self_)] + 1; }

  /// Broadcast application data (delivered to self immediately, per BSS).
  void broadcast(std::vector<std::uint8_t> data);

  /// Network upcall (`from` is msg.src: CBCAST never relays).
  void on_message(EntityId from, const CbcastMsg& msg);

  /// Messages stuck waiting for causal predecessors. On a reliable network
  /// this drains to zero; on a lossy one it stalls forever — CBCAST has no
  /// way to notice (E7b).
  std::size_t delay_queue_size() const { return delay_queue_.size(); }

 private:
  bool deliverable(const CbcastMsg& msg);
  void deliver(const CbcastMsg& msg);
  void drain_delay_queue();

  EntityId self_;
  std::size_t n_;
  Hooks hooks_;
  clocks::VectorClock vt_;
  std::deque<CbcastMsg> delay_queue_;
  CbcastStats stats_;
};

}  // namespace co::baselines
