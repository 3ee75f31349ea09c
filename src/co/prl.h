// PRL — the pre-acknowledged receipt sublog, ordered by the CPI
// (causality-preserved insertion) operation of paper §4.4.
//
// CPI inserts a PDU p into the log so the log stays causality-preserved
// under the Theorem 4.1 test:
//   (1) empty log          -> append;
//   (2-1) p ≺ every q      -> prepend;
//   (2-2/2-3) q ≺ p or q~p for the trailing elements -> append;
//   (3) otherwise insert between q1 ≺ p ≺ q2.
// Equivalently (and how cpi_insert implements it): insert p immediately
// before the FIRST element q with p ≺ q, or append if no such element.
// Concurrent PDUs therefore land at the latest admissible position,
// matching rule (2-3).
//
// Under the entity's causal pre-ack gate (DESIGN.md) that first element
// never exists, so CPI degenerates to append(): every q already in the log
// passed the gate, so q.ack[p.src] <= packed_high[p.src] + 1 <= p.seq, and
// a same-source q with a higher SEQ cannot be packed ahead of p (RRLs pack
// in FIFO order). cpi_insert() keeps the scan for the gate ablation and the
// no_causal_gate mutation, whose insertions can land mid-log.
//
// The Theorem 4.1 relation is not transitive in adversarial cases, so debug
// builds verify every insertion: cpi_insert that no element after the
// chosen position precedes p, append that p precedes no logged element.
// The gate is what guarantees neither check fires.
//
// Layout: structure-of-arrays. The shared PduRef bodies and the intrusive
// acceptance timestamps ride in parallel vectors, and the two hot key
// columns — each entry's (src, seq) — are mirrored into their own
// contiguous arrays. The CPI scan and the ACK-condition sweep read those
// key columns instead of dereferencing a PduRef per element, so the common
// same-source precedence test touches no PDU body at all. The log head is
// an index into the columns: dequeue() advances it in O(1), and the dead
// prefix is compacted away once it is 64 long and at least as long as the
// live part (amortised O(1), and no allocation once the columns have grown).
#pragma once

#include <cstddef>
#include <vector>

#include "src/co/pdu.h"
#include "src/co/time.h"

namespace co::proto {

class Prl {
 public:
  struct Entry {
    PduRef pdu;
    /// When the local acceptance action fired for this PDU (intrusive
    /// latency slot; 0 when the entity is not recording latencies).
    time::Tick accepted_at = 0;
  };

  /// Causality-preserved insertion (the paper's `L < p`). Returns the index
  /// p was inserted at. PduRef is implicitly constructible from CoPdu, so
  /// `cpi_insert(make_pdu(...))` call sites keep working.
  std::size_t cpi_insert(PduRef p, time::Tick accepted_at = 0);

  /// CPI for a PDU that precedes no logged element, which the causal
  /// pre-ack gate guarantees for every PDU it admits. O(1); debug builds
  /// check the precondition over the whole log.
  void append(PduRef p, time::Tick accepted_at = 0);

  bool empty() const { return head_ == pdus_.size(); }
  std::size_t size() const { return pdus_.size() - head_; }

  const CoPdu& top() const;
  Entry dequeue();

  /// Key columns of the head element, readable without touching the PDU
  /// body (the ACK-condition sweep runs on these).
  SeqNo top_seq() const { return seq_[head_]; }
  EntityId top_src() const { return src_[head_]; }

  const CoPdu& at(std::size_t i) const { return *pdus_.at(head_ + i); }

  /// Contiguous SoA key columns (size() lanes each), front == index 0.
  const SeqNo* seqs() const { return seq_.data() + head_; }
  const EntityId* srcs() const { return src_.data() + head_; }

  /// True when every ordered pair in the log satisfies: if the later element
  /// precedes the earlier one (Thm 4.1), the log is broken. O(m^2); used by
  /// tests and debug assertions.
  bool causality_preserved() const;

  /// Largest size the log ever reached (experiment E3: buffer usage O(n)).
  std::size_t high_watermark() const { return high_watermark_; }

 private:
  // Parallel arrays, one slot per log element; the live log is the suffix
  // starting at head_. The log is O(n) deep in steady state (experiment
  // E3), so the occasional mid-insert (gate ablation only) and the
  // compaction moves are small and contiguous.
  std::vector<PduRef> pdus_;
  std::vector<time::Tick> accepted_at_;
  std::vector<SeqNo> seq_;    // mirror of pdus_[i]->seq
  std::vector<EntityId> src_; // mirror of pdus_[i]->src
  std::size_t head_ = 0;      // physical index of the log head
  std::size_t high_watermark_ = 0;
};

}  // namespace co::proto
