// Unit tests: the PRL and its CPI (causality-preserved insertion) operation,
// including the paper's Example 4.1 insertion sequence.
#include <gtest/gtest.h>

#include <deque>
#include <utility>

#include "src/co/prl.h"
#include "src/common/rng.h"

namespace co::proto {
namespace {

CoPdu pdu(EntityId src, SeqNo seq, std::vector<SeqNo> ack) {
  CoPdu p;
  p.src = src;
  p.seq = seq;
  p.ack = std::move(ack);
  return p;
}

TEST(Prl, EmptyInsertAppends) {
  Prl prl;
  EXPECT_EQ(prl.cpi_insert(pdu(0, 1, {1, 1})), 0u);
  EXPECT_EQ(prl.size(), 1u);
  EXPECT_EQ(prl.top().seq, 1u);
}

TEST(Prl, SameSourceStaysInSeqOrderRegardlessOfInsertOrder) {
  Prl prl;
  prl.cpi_insert(pdu(0, 2, {3, 1}));
  prl.cpi_insert(pdu(0, 1, {1, 1}));  // predecessor arrives later
  ASSERT_EQ(prl.size(), 2u);
  EXPECT_EQ(prl.at(0).seq, 1u);
  EXPECT_EQ(prl.at(1).seq, 2u);
  EXPECT_TRUE(prl.causality_preserved());
}

TEST(Prl, ConcurrentGoesToTail) {
  Prl prl;
  prl.cpi_insert(pdu(0, 1, {2, 1}));
  const auto pos = prl.cpi_insert(pdu(1, 1, {1, 2}));  // concurrent
  EXPECT_EQ(pos, 1u);
}

TEST(Prl, PaperExample41InsertionSequence) {
  // Example 4.1: after h is accepted, PDUs are pre-acknowledged and moved
  // into PRL in the order c, e, d, b (a is already there). The paper gives
  // the resulting log <a c b d e] ... with a ≺ b ≺ c ∼ b, c ≺ d ≺ e.
  // Cluster E1,E2,E3 -> indices 0,1,2. Table 1 fields:
  const CoPdu a = pdu(0, 1, {1, 1, 1});
  const CoPdu b = pdu(2, 1, {2, 1, 1});
  const CoPdu c = pdu(0, 2, {2, 1, 1});
  const CoPdu d = pdu(1, 1, {3, 1, 2});
  const CoPdu e = pdu(0, 3, {3, 2, 2});

  Prl prl;
  prl.cpi_insert(a);
  // "First, c and e are appended to the tail of PRL (PRL = <a c e])".
  prl.cpi_insert(c);
  prl.cpi_insert(e);
  ASSERT_EQ(prl.size(), 3u);
  EXPECT_EQ(prl.at(0).key(), a.key());
  EXPECT_EQ(prl.at(1).key(), c.key());
  EXPECT_EQ(prl.at(2).key(), e.key());
  // "Secondly, d is moved ... d is inserted between c and e".
  prl.cpi_insert(d);
  ASSERT_EQ(prl.size(), 4u);
  EXPECT_EQ(prl.at(2).key(), d.key());
  // "Then, b is inserted between c and d because c ~ b ≺ d."
  prl.cpi_insert(b);
  ASSERT_EQ(prl.size(), 5u);
  EXPECT_EQ(prl.at(0).key(), a.key());
  EXPECT_EQ(prl.at(1).key(), c.key());
  EXPECT_EQ(prl.at(2).key(), b.key());
  EXPECT_EQ(prl.at(3).key(), d.key());
  EXPECT_EQ(prl.at(4).key(), e.key());
  EXPECT_TRUE(prl.causality_preserved());
}

TEST(Prl, DequeueFromTop) {
  Prl prl;
  prl.cpi_insert(pdu(0, 1, {1, 1}));
  prl.cpi_insert(pdu(0, 2, {2, 1}));
  const CoPdu top = *prl.dequeue().pdu;
  EXPECT_EQ(top.seq, 1u);
  EXPECT_EQ(prl.size(), 1u);
}

TEST(Prl, DequeueEmptyThrows) {
  Prl prl;
  EXPECT_THROW(prl.dequeue(), std::logic_error);
  EXPECT_THROW(prl.top(), std::logic_error);
}

TEST(Prl, HighWatermarkTracksPeak) {
  Prl prl;
  for (SeqNo s = 1; s <= 5; ++s) prl.cpi_insert(pdu(0, s, {s, 1}));
  for (int i = 0; i < 3; ++i) prl.dequeue();
  EXPECT_EQ(prl.high_watermark(), 5u);
  EXPECT_EQ(prl.size(), 2u);
}

// The head index: dequeue() advances it, and the columns compact once the
// dead prefix reaches 64 and covers half the storage. These tests drive the
// log across that threshold and read every accessor from a moved head.

TEST(Prl, AppendAndDequeueAcrossCompactionMatchFifoModel) {
  // Two independent streams (neither source's PDUs depend on the other's),
  // so any interleaving of appends is a lawful linear extension.
  Rng rng(7);
  Prl prl;
  std::deque<std::pair<EntityId, SeqNo>> model;
  SeqNo next[2] = {1, 1};
  std::size_t peak = 0;
  for (int step = 0; step < 4000; ++step) {
    // Phases bias toward growth, then drain, so the live log repeatedly
    // climbs past the compaction threshold and also empties outright.
    const bool grow = (step / 500) % 2 == 0 ? rng.next_bool(0.7)
                                            : rng.next_bool(0.3);
    if (grow || model.empty()) {
      const auto src = static_cast<EntityId>(rng.next_below(2));
      const SeqNo seq = next[src]++;
      std::vector<SeqNo> ack(2, 1);
      ack[static_cast<std::size_t>(src)] = seq;
      prl.append(pdu(src, seq, ack), static_cast<time::Tick>(step));
      model.emplace_back(src, seq);
    } else {
      const Prl::Entry e = prl.dequeue();
      EXPECT_EQ(e.pdu->src, model.front().first);
      EXPECT_EQ(e.pdu->seq, model.front().second);
      model.pop_front();
    }
    peak = std::max(peak, model.size());
    ASSERT_EQ(prl.size(), model.size()) << "step " << step;
    ASSERT_EQ(prl.empty(), model.empty());
    if (model.empty()) continue;
    EXPECT_EQ(prl.top_src(), model.front().first);
    EXPECT_EQ(prl.top_seq(), model.front().second);
    EXPECT_EQ(prl.top().seq, model.front().second);
    for (std::size_t i = 0; i < model.size(); ++i) {
      ASSERT_EQ(prl.srcs()[i], model[i].first) << "step " << step;
      ASSERT_EQ(prl.seqs()[i], model[i].second) << "step " << step;
    }
    const std::size_t mid = model.size() / 2;
    EXPECT_EQ(prl.at(mid).seq, model[mid].second);
  }
  EXPECT_GT(peak, 128u);  // the compaction threshold was crossed
  EXPECT_EQ(prl.high_watermark(), peak);
}

TEST(Prl, AccessorsReadFromAdvancedHead) {
  Prl prl;
  for (SeqNo s = 1; s <= 10; ++s)
    prl.append(pdu(s % 2 == 0 ? 1 : 0, s, {s, s}), static_cast<time::Tick>(s));
  for (int i = 0; i < 3; ++i) prl.dequeue();
  ASSERT_EQ(prl.size(), 7u);
  EXPECT_EQ(prl.top().seq, 4u);
  EXPECT_EQ(prl.top_seq(), 4u);
  EXPECT_EQ(prl.top_src(), 1);
  for (std::size_t i = 0; i < prl.size(); ++i) {
    const SeqNo s = 4 + i;
    EXPECT_EQ(prl.at(i).seq, s);
    EXPECT_EQ(prl.seqs()[i], s);
    EXPECT_EQ(prl.srcs()[i], s % 2 == 0 ? 1 : 0);
  }
  EXPECT_THROW(prl.at(prl.size()), std::out_of_range);
  EXPECT_EQ(prl.high_watermark(), 10u);
  EXPECT_TRUE(prl.causality_preserved());
  const Prl::Entry e = prl.dequeue();
  EXPECT_EQ(e.pdu->seq, 4u);
  EXPECT_EQ(e.accepted_at, 4);
}

TEST(Prl, CausalityPreservedReadsOnlyTheLiveLog) {
  // Example 4.1's final log, appended in CPI order, then drained from the
  // head one element at a time: every suffix of a causality-preserved log
  // is causality-preserved, and the check must never read a dequeued slot.
  Prl prl;
  prl.append(pdu(0, 1, {1, 1, 1}));  // a
  prl.append(pdu(0, 2, {2, 1, 1}));  // c
  prl.append(pdu(2, 1, {2, 1, 1}));  // b
  prl.append(pdu(1, 1, {3, 1, 2}));  // d
  prl.append(pdu(0, 3, {3, 2, 2}));  // e
  while (!prl.empty()) {
    EXPECT_TRUE(prl.causality_preserved()) << "size " << prl.size();
    prl.dequeue();
  }
  EXPECT_TRUE(prl.causality_preserved());
}

TEST(Prl, CpiInsertAfterDequeueUsesLogicalIndex) {
  // The gate ablation still inserts mid-log; positions are relative to the
  // advanced head. c = E1#1 depends on b = E2#1 (c.ack[2] = 2), and b
  // arrives after c was logged.
  Prl prl;
  prl.append(pdu(0, 1, {1, 1, 1}));  // dequeued below
  prl.append(pdu(0, 2, {2, 1, 1}));
  prl.append(pdu(1, 1, {1, 1, 2}));  // c
  prl.dequeue();
  EXPECT_EQ(prl.cpi_insert(pdu(2, 1, {1, 1, 1})), 1u);  // b, before c
  ASSERT_EQ(prl.size(), 3u);
  EXPECT_EQ(prl.at(0).key(), (PduKey{0, 2}));
  EXPECT_EQ(prl.at(1).key(), (PduKey{2, 1}));
  EXPECT_EQ(prl.at(2).key(), (PduKey{1, 1}));
  EXPECT_EQ(prl.srcs()[1], 2);
  EXPECT_EQ(prl.seqs()[2], 1u);
  EXPECT_TRUE(prl.causality_preserved());
}

TEST(Prl, CpiInsertBeforeCompactionKeepsOrder) {
  // E0#81.. depend on E1#1 (ack[1] = 2); E0#1..80 do not. With 63 entries
  // dequeued (one short of the compaction threshold), E1#1 lands before
  // E0#81, and the next dequeue compacts the columns under it.
  Prl prl;
  for (SeqNo s = 1; s <= 100; ++s)
    prl.append(pdu(0, s, {s, s > 80 ? SeqNo{2} : SeqNo{1}}));
  for (int i = 0; i < 63; ++i) prl.dequeue();
  EXPECT_EQ(prl.cpi_insert(pdu(1, 1, {1, 1})), 17u);
  EXPECT_EQ(prl.size(), 38u);
  EXPECT_TRUE(prl.causality_preserved());
  std::vector<PduKey> order;
  while (!prl.empty()) order.push_back(prl.dequeue().pdu->key());
  ASSERT_EQ(order.size(), 38u);
  for (std::size_t i = 0; i < 17; ++i)
    EXPECT_EQ(order[i], (PduKey{0, 64 + i}));
  EXPECT_EQ(order[17], (PduKey{1, 1}));
  for (std::size_t i = 18; i < order.size(); ++i)
    EXPECT_EQ(order[i], (PduKey{0, 63 + i}));
}

// Property sweep: insert random causally-consistent PDU batches in orders
// that respect the protocol's pre-acknowledgment discipline (the causal
// pre-ack gate guarantees insertion order is a linear extension of the
// detected relation); CPI must keep the log causality-preserved. Orders
// violating the discipline CAN break the log — that is exactly why the
// entity gates the PACK action (see DESIGN.md).
class PrlPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrlPropertyTest, LawfulInsertionOrdersPreserveCausality) {
  Rng rng(GetParam());
  const std::size_t n = 3 + rng.next_below(3);
  // Simulate a run of a simple causal system to produce consistent ACKs.
  std::vector<std::vector<CoPdu>> streams(n);
  std::vector<std::vector<SeqNo>> req(n, std::vector<SeqNo>(n, 1));
  std::vector<CoPdu> all;
  for (int step = 0; step < 40; ++step) {
    const auto e = static_cast<std::size_t>(rng.next_below(n));
    // Entity e "receives" a random prefix of other streams first.
    for (std::size_t j = 0; j < n; ++j) {
      if (j == e || streams[j].empty()) continue;
      const SeqNo upto = 1 + rng.next_below(streams[j].back().seq + 1);
      req[e][j] = std::max(req[e][j], upto);
    }
    CoPdu p;
    p.src = static_cast<EntityId>(e);
    p.seq = req[e][e];
    req[e][e] = p.seq + 1;
    p.ack = req[e];
    streams[e].push_back(p);
    all.push_back(p);
  }
  // Insert in a random linear extension of the detected causal order (what
  // the gated PACK action produces): repeatedly pick any PDU whose detected
  // predecessors are all inserted.
  Prl prl;
  std::vector<bool> inserted(all.size(), false);
  std::size_t remaining = all.size();
  while (remaining > 0) {
    std::vector<std::size_t> ready;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (inserted[i]) continue;
      bool ok = true;
      for (std::size_t j = 0; j < all.size() && ok; ++j)
        if (!inserted[j] && i != j && causally_precedes(all[j], all[i]))
          ok = false;
      if (ok) ready.push_back(i);
    }
    ASSERT_FALSE(ready.empty()) << "detected relation must be acyclic";
    const auto pick = ready[rng.next_below(ready.size())];
    prl.cpi_insert(all[pick]);
    inserted[pick] = true;
    --remaining;
    EXPECT_TRUE(prl.causality_preserved());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrlPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace co::proto
