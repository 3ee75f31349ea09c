#include "src/co/prl.h"

#include <algorithm>

#include "src/common/expect.h"

namespace co::proto {

namespace {
// Dead-prefix length at which dequeue() compacts the columns (once the
// prefix is also at least as long as the live log).
constexpr std::size_t kCompactMin = 64;
}  // namespace

std::size_t Prl::cpi_insert(PduRef p, time::Tick accepted_at) {
  // Position before the first element that p causality-precedes. The scan
  // runs on the SoA key columns: the same-source case (p.seq < q.seq) needs
  // no PDU body at all; only a cross-source candidate dereferences its
  // body for the ack[p.src] lane of the Theorem 4.1 test.
  const EntityId psrc = (*p).src;
  const SeqNo pseq = (*p).seq;
  const std::size_t end = pdus_.size();
  std::size_t at = end;
  for (std::size_t i = head_; i < end; ++i) {
    const bool precedes =
        src_[i] == psrc ? pseq < seq_[i]
                        : pseq < pdus_[i]->ack[static_cast<std::size_t>(psrc)];
    if (precedes) {
      at = i;
      break;
    }
  }
#ifndef NDEBUG
  // Consistency: nothing at or after `at` may precede p, otherwise the
  // insertion would break causality-preservation. Reachable only if the
  // protocol let a PDU be pre-acknowledged ahead of a detected predecessor,
  // which the causal pre-ack gate rules out.
  for (std::size_t i = at; i < end; ++i) {
    CO_EXPECT_MSG(!causally_precedes(*pdus_[i], *p),
                  "CPI conflict inserting " << *p << " before " << *pdus_[i]);
  }
#endif
  const auto off = static_cast<std::ptrdiff_t>(at);
  seq_.insert(seq_.begin() + off, pseq);
  src_.insert(src_.begin() + off, psrc);
  accepted_at_.insert(accepted_at_.begin() + off, accepted_at);
  pdus_.insert(pdus_.begin() + off, std::move(p));
  high_watermark_ = std::max(high_watermark_, size());
  return at - head_;
}

void Prl::append(PduRef p, time::Tick accepted_at) {
#ifndef NDEBUG
  // Precondition: CPI would append, i.e. p precedes no logged element.
  for (std::size_t i = head_; i < pdus_.size(); ++i) {
    CO_EXPECT_MSG(!causally_precedes(*p, *pdus_[i]),
                  "append of " << *p << " after its successor " << *pdus_[i]);
  }
#endif
  seq_.push_back((*p).seq);
  src_.push_back((*p).src);
  accepted_at_.push_back(accepted_at);
  pdus_.push_back(std::move(p));
  high_watermark_ = std::max(high_watermark_, size());
}

const CoPdu& Prl::top() const {
  CO_EXPECT(!empty());
  return *pdus_[head_];
}

Prl::Entry Prl::dequeue() {
  CO_EXPECT(!empty());
  Entry e{std::move(pdus_[head_]), accepted_at_[head_]};
  ++head_;
  if (head_ == pdus_.size()) {
    // Emptied: rewind in place (clear() keeps every column's capacity).
    pdus_.clear();
    accepted_at_.clear();
    seq_.clear();
    src_.clear();
    head_ = 0;
  } else if (head_ >= kCompactMin && 2 * head_ >= pdus_.size()) {
    const auto dead = static_cast<std::ptrdiff_t>(head_);
    pdus_.erase(pdus_.begin(), pdus_.begin() + dead);
    accepted_at_.erase(accepted_at_.begin(), accepted_at_.begin() + dead);
    seq_.erase(seq_.begin(), seq_.begin() + dead);
    src_.erase(src_.begin(), src_.begin() + dead);
    head_ = 0;
  }
  return e;
}

bool Prl::causality_preserved() const {
  for (std::size_t i = head_; i < pdus_.size(); ++i)
    for (std::size_t j = i + 1; j < pdus_.size(); ++j)
      if (causally_precedes(*pdus_[j], *pdus_[i])) return false;
  return true;
}

}  // namespace co::proto
