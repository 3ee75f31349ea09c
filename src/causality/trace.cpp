#include "src/causality/trace.h"

#include <ostream>

#include "src/common/expect.h"

namespace co::causality {

std::ostream& operator<<(std::ostream& os, const PduKey& k) {
  return os << "E" << k.src << "#" << k.seq;
}

TraceRecorder::TraceRecorder(std::size_t n) {
  CO_EXPECT(n >= 1);
  entity_clock_.assign(n, clocks::VectorClock(n));
}

void TraceRecorder::on_send(EntityId sender, const PduKey& key) {
  CO_EXPECT(sender >= 0 &&
            static_cast<std::size_t>(sender) < entity_clock_.size());
  CO_EXPECT_MSG(key.src == sender, "PDU key source must match sender");
  CO_EXPECT_MSG(!send_clock_.contains(key),
                "duplicate original send of " << key);
  auto& clk = entity_clock_[static_cast<std::size_t>(sender)];
  clk.tick(sender);
  send_clock_.emplace(key, clk);
  send_order_.push_back(key);
  accept_stamp_.emplace(key, std::vector<std::uint64_t>(entity_clock_.size()));
}

void TraceRecorder::on_accept(EntityId receiver, const PduKey& key) {
  CO_EXPECT(receiver >= 0 &&
            static_cast<std::size_t>(receiver) < entity_clock_.size());
  const auto it = send_clock_.find(key);
  CO_EXPECT_MSG(it != send_clock_.end(),
                "acceptance of never-sent PDU " << key);
  const auto r = static_cast<std::size_t>(receiver);
  std::uint64_t& stamp = accept_stamp_.at(key)[r];
  CO_EXPECT_MSG(stamp == 0,
                "duplicate acceptance of " << key << " at E" << receiver);
  auto& clk = entity_clock_[r];
  clk.receive(receiver, it->second);
  stamp = clk[r];  // >= 1: receive ticks the receiver's own component
}

std::uint64_t TraceRecorder::accept_stamp(EntityId receiver,
                                          const PduKey& key) const {
  const auto it = accept_stamp_.find(key);
  if (it == accept_stamp_.end()) return 0;
  return it->second.at(static_cast<std::size_t>(receiver));
}

bool TraceRecorder::pre_acknowledges(const PduKey& p, const PduKey& q,
                                     EntityId j, EntityId i) const {
  if (q.src != j) return false;
  if (!has_accept(i, p) || !has_accept(i, q)) return false;
  // Special case j == p.src: the source stands in for its own receipt, so
  // the chain reduces to s_j[p] -> s_j[q] (q sent after p).
  if (j == p.src)
    return clocks::VectorClock::happened_before(send_clock(p), send_clock(q));
  // r_j[p] -> s_j[q]: both events at E_j, ordered by E_j's own component.
  const std::uint64_t rjp = accept_stamp(j, p);
  return rjp != 0 && rjp < send_clock(q)[static_cast<std::size_t>(j)];
}

bool TraceRecorder::pre_acknowledged_in(const PduKey& p, EntityId i) const {
  for (std::size_t j = 0; j < entity_clock_.size(); ++j) {
    const auto jd = static_cast<EntityId>(j);
    bool found = false;
    for (const auto& q : send_order_) {
      if (q.src != jd) continue;
      if (pre_acknowledges(p, q, jd, i)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

bool TraceRecorder::acknowledged_in(const PduKey& p, EntityId i) const {
  // For every E_j there must be a PDU g from E_j, accepted by E_i, sent
  // after p was pre-acknowledged in E_j (criterion (3): E_i knows every
  // destination pre-acknowledged p).
  for (std::size_t j = 0; j < entity_clock_.size(); ++j) {
    const auto jd = static_cast<EntityId>(j);
    bool found = false;
    for (const auto& g : send_order_) {
      if (g.src != jd || !has_accept(i, g)) continue;
      // Was p pre-acknowledged in E_j before s_j[g]? Approximate the
      // "before" by checking pre-acknowledged_in with events restricted to
      // those happened-before s_j[g]: every witness acceptance r_h[p] and
      // confirmation must precede s_j[g]. Conservatively: p must be
      // pre-acknowledged in E_j at all, and g must causally follow p.
      if (pre_acknowledged_in(p, jd) &&
          clocks::VectorClock::happened_before(send_clock(p), send_clock(g))) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

bool TraceRecorder::has_send(const PduKey& key) const {
  return send_clock_.contains(key);
}

bool TraceRecorder::has_accept(EntityId receiver, const PduKey& key) const {
  return accept_stamp(receiver, key) != 0;
}

bool TraceRecorder::causally_precedes(const PduKey& p, const PduKey& q) const {
  if (p == q) return false;
  return clocks::VectorClock::happened_before(send_clock(p), send_clock(q));
}

bool TraceRecorder::concurrent(const PduKey& p, const PduKey& q) const {
  if (p == q) return false;
  return !causally_precedes(p, q) && !causally_precedes(q, p);
}

const clocks::VectorClock& TraceRecorder::send_clock(const PduKey& key) const {
  const auto it = send_clock_.find(key);
  CO_EXPECT_MSG(it != send_clock_.end(), "unknown PDU " << key);
  return it->second;
}

std::size_t TraceRecorder::accept_count(const PduKey& key) const {
  const auto it = accept_stamp_.find(key);
  if (it == accept_stamp_.end()) return 0;
  std::size_t c = 0;
  for (const std::uint64_t stamp : it->second) c += stamp != 0 ? 1 : 0;
  return c;
}

}  // namespace co::causality
