// ParkBuffer — flat circular gap-buffer for the out-of-order PDUs of one
// source (the selective-repeat "parked" set, formerly a std::map per
// source).
//
// A parked PDU from E_j has SEQ in (REQ[j], REQ[j] + span): the leading
// hole is being retransmitted, everything already received waits here. The
// buffer keys slots by SEQ - base (base tracks REQ[j]) in a power-of-two
// ring, so insert/lookup are O(1) with zero allocation once the ring has
// grown to the largest gap span the run ever sees — node-per-entry map
// allocations on the loss path are gone.
//
// Layout: slot occupancy lives in a separate bitmap (one bit per slot)
// beside the PduRef slot array, SoA-style. The first_seq() sweep — run on
// every loss-path RET decision — scans 64 slots per word with a
// count-trailing-zeros instead of walking 8-byte handles, and drop_below
// skips vacant runs the same way.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/co/pdu.h"
#include "src/common/expect.h"

namespace co::proto {

class ParkBuffer {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  /// Park `p` at `seq`, where `req` is the source's current REQ (so
  /// seq > req). Returns false when that SEQ is already parked (duplicate
  /// receipt). Grows the ring geometrically if the span demands it.
  bool insert(SeqNo req, SeqNo seq, PduRef p) {
    drop_below(req);
    CO_EXPECT(seq >= base_);
    const SeqNo span = seq - base_ + 1;
    CO_EXPECT_MSG(span <= kMaxSpan, "park span implausibly large");
    if (span > slots_.size()) grow(static_cast<std::size_t>(span));
    const std::size_t i = index_of(seq);
    if (occupied(i)) return false;
    slots_[i] = std::move(p);
    set_occupied(i);
    ++count_;
    return true;
  }

  /// Lowest parked SEQ; call only when !empty().
  SeqNo first_seq() const {
    CO_EXPECT(count_ != 0);
    const std::size_t cap = slots_.size();
    std::size_t scanned = 0;
    while (scanned < cap) {
      const std::size_t i = (head_ + scanned) & (cap - 1);
      const std::size_t bit = i & 63;
      // Contiguous run from slot i: to the end of this bitmap word, the end
      // of the ring, or the end of the scan — whichever is nearest. (For
      // cap >= 64 word and ring boundaries coincide; for smaller rings the
      // single word simply holds < 64 live bits.)
      std::size_t run = 64 - bit;
      if (cap - i < run) run = cap - i;
      if (cap - scanned < run) run = cap - scanned;
      const std::uint64_t word = occ_[i >> 6] >> bit;
      if (word != 0) {
        const auto tz = static_cast<std::size_t>(std::countr_zero(word));
        if (tz < run) return base_ + scanned + tz;
      }
      scanned += run;
    }
    CO_EXPECT_MSG(false, "ParkBuffer count/slots out of sync");
    return base_;
  }

  /// Remove and return the PDU parked at exactly `seq` (null if absent).
  PduRef take(SeqNo seq) {
    if (count_ == 0 || seq < base_ || seq - base_ >= slots_.size())
      return PduRef{};
    const std::size_t i = index_of(seq);
    if (!occupied(i)) return PduRef{};
    --count_;
    clear_occupied(i);
    PduRef out = std::move(slots_[i]);
    slots_[i].reset();
    return out;
  }

  /// Widest gap a parked SEQ may sit past REQ. A backstop against a
  /// corrupted or forged SEQ exploding the ring (CoCore drops such PDUs
  /// before they get here); real gap spans are bounded by the sender-side
  /// backlog cap (a few windows).
  static constexpr SeqNo kMaxSpan = SeqNo{1} << 20;

  /// Advance the window: drop any parked entry with SEQ < req (stale — the
  /// acceptance cursor moved past it) and rebase the ring at req.
  void drop_below(SeqNo req) {
    if (count_ == 0 || slots_.empty()) {
      base_ = req;
      head_ = 0;
      return;
    }
    while (base_ < req) {
      if (occupied(head_)) {
        slots_[head_].reset();
        clear_occupied(head_);
        if (--count_ == 0) {
          base_ = req;
          head_ = 0;
          return;
        }
      }
      ++base_;
      head_ = (head_ + 1) & (slots_.size() - 1);
    }
  }

 private:
  bool occupied(std::size_t i) const {
    return (occ_[i >> 6] >> (i & 63)) & 1u;
  }
  void set_occupied(std::size_t i) { occ_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void clear_occupied(std::size_t i) {
    occ_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  std::size_t index_of(SeqNo seq) const {
    return (head_ + static_cast<std::size_t>(seq - base_)) &
           (slots_.size() - 1);
  }

  void grow(std::size_t need) {
    std::size_t cap = slots_.empty() ? 8 : slots_.size();
    while (cap < need) cap *= 2;
    std::vector<PduRef> bigger(cap);
    std::vector<std::uint64_t> bigger_occ((cap + 63) / 64, 0);
    for (std::size_t off = 0; off < slots_.size(); ++off) {
      const std::size_t i = (head_ + off) & (slots_.size() - 1);
      if (occupied(i)) {
        bigger[off] = std::move(slots_[i]);
        bigger_occ[off >> 6] |= std::uint64_t{1} << (off & 63);
      }
    }
    slots_ = std::move(bigger);
    occ_ = std::move(bigger_occ);
    head_ = 0;
  }

  std::vector<PduRef> slots_;        // power-of-two ring
  std::vector<std::uint64_t> occ_;   // one bit per slot: slot holds a PDU
  SeqNo base_ = kFirstSeq;           // SEQ mapped to slots_[head_]
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace co::proto
