// Happened-before oracle over a recorded execution.
//
// Tests instrument every protocol run with a TraceRecorder. The recorder
// maintains the ground-truth happened-before relation [Lamport 78] with
// vector clocks that are NOT visible to the protocol under test:
//   * on_send(sender, p)      — the original broadcast of p (retransmissions
//                               are not new sends; the rebroadcast PDU is
//                               byte-identical to the original);
//   * on_accept(receiver, p)  — the protocol-level receipt event r_i[p]
//                               (the paper's acceptance).
//
// The paper's causality-precedence (§2.2): p ≺ q iff s[p] -> s[q]. The
// oracle computes this as VC(s[p]) < VC(s[q]) and is the reference that the
// protocol's sequence-number test (Theorem 4.1) and all delivery logs are
// validated against.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/causality/pdu_key.h"
#include "src/clocks/vector_clock.h"
#include "src/common/types.h"

namespace co::causality {

class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t n);

  std::size_t cluster_size() const { return entity_clock_.size(); }

  /// Record the original broadcast of `key` by `sender`. Must be called at
  /// most once per key; `key.src` must equal `sender`.
  void on_send(EntityId sender, const PduKey& key);

  /// Record the acceptance of `key` at `receiver`. The receiver's clock
  /// merges the ORIGINAL send's clock: an accepted (possibly retransmitted)
  /// PDU carries exactly the fields of the original send.
  void on_accept(EntityId receiver, const PduKey& key);

  bool has_send(const PduKey& key) const;
  bool has_accept(EntityId receiver, const PduKey& key) const;

  /// Paper §3: q pre-acknowledges p for E_j in E_i (p ⇒_ji q) iff
  /// s[p] -> r_i[p] and s[p] -> r_j[p] -> s_j[q] -> r_i[q]: E_i has
  /// accepted both p and E_j's PDU q, and E_j accepted p before sending q.
  bool pre_acknowledges(const PduKey& p, const PduKey& q, EntityId j,
                        EntityId i) const;

  /// Paper §3 criterion (2): p is pre-acknowledged in E_i iff for every
  /// entity E_j there exists q with p ⇒_ji q.
  bool pre_acknowledged_in(const PduKey& p, EntityId i) const;

  /// Paper §3 criterion (3): p is acknowledged in E_i iff E_i knows every
  /// destination pre-acknowledged p — operationally, for every E_j there is
  /// a PDU g from E_j, accepted by E_i and causally after p, with p
  /// pre-acknowledged in E_j.
  bool acknowledged_in(const PduKey& p, EntityId i) const;

  /// Ground truth for the paper's `p ≺ q` (causality-precedence).
  bool causally_precedes(const PduKey& p, const PduKey& q) const;

  /// `p ~ q`: neither precedes the other (causality-coincident).
  bool concurrent(const PduKey& p, const PduKey& q) const;

  const clocks::VectorClock& send_clock(const PduKey& key) const;

  /// All keys recorded as sent, in send-recording order.
  const std::vector<PduKey>& sends() const { return send_order_; }

  /// Number of acceptance events recorded for `key` across all entities.
  std::size_t accept_count(const PduKey& key) const;

 private:
  std::vector<clocks::VectorClock> entity_clock_;
  std::unordered_map<PduKey, clocks::VectorClock, PduKeyHash> send_clock_;
  std::vector<PduKey> send_order_;
  // Per key, per receiver E_j: E_j's own clock component at the acceptance
  // r_j[key], 0 = not accepted there. Every event at E_j ticks that
  // component, so it totally orders E_j's events: r_j[p] -> s_j[q] iff
  // stamp < send_clock(q)[j]. One integer per (PDU, receiver) instead of a
  // whole n-entry clock keeps the oracle O(n) per PDU.
  std::unordered_map<PduKey, std::vector<std::uint64_t>, PduKeyHash>
      accept_stamp_;

  std::uint64_t accept_stamp(EntityId receiver, const PduKey& key) const;
};

}  // namespace co::causality
