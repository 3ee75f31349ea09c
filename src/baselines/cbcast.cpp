#include "src/baselines/cbcast.h"

#include "src/common/expect.h"
#include "src/common/wall_clock.h"

namespace co::baselines {

CbcastEntity::CbcastEntity(EntityId self, std::size_t n, Hooks hooks)
    : self_(self), n_(n), hooks_(std::move(hooks)), vt_(n) {
  CO_EXPECT(n >= 2);
  CO_EXPECT(self >= 0 && static_cast<std::size_t>(self) < n);
  CO_EXPECT(hooks_.broadcast && hooks_.deliver);
}

void CbcastEntity::broadcast(std::vector<std::uint8_t> data) {
  vt_.tick(self_);
  CbcastMsg msg;
  msg.src = self_;
  msg.seq = vt_[static_cast<std::size_t>(self_)];
  msg.vt = vt_;
  msg.data = std::move(data);
  ++stats_.sent;
  // BSS: the sender's own message is causally deliverable at once.
  ++stats_.delivered;
  hooks_.deliver(msg);
  hooks_.broadcast(std::move(msg));
}

bool CbcastEntity::deliverable(const CbcastMsg& msg) {
  ++stats_.delivery_checks;
  const auto j = static_cast<std::size_t>(msg.src);
  if (msg.vt[j] != vt_[j] + 1) return false;
  for (std::size_t k = 0; k < n_; ++k) {
    if (k == j) continue;
    if (msg.vt[k] > vt_[k]) return false;
  }
  return true;
}

void CbcastEntity::deliver(const CbcastMsg& msg) {
  vt_.merge(msg.vt);
  ++stats_.delivered;
  hooks_.deliver(msg);
}

void CbcastEntity::on_message(EntityId /*from*/, const CbcastMsg& msg) {
  const std::uint64_t t0 = wall_ns();
  ++stats_.received;
  if (msg.src == self_) {
    // Own copy looped back by the broadcast medium; already delivered.
    stats_.processing_ns += wall_ns() - t0;
    return;
  }
  if (deliverable(msg)) {
    deliver(msg);
    drain_delay_queue();
  } else {
    ++stats_.delayed;
    delay_queue_.push_back(msg);
    stats_.max_delay_queue =
        std::max(stats_.max_delay_queue, delay_queue_.size());
  }
  stats_.processing_ns += wall_ns() - t0;
}

void CbcastEntity::drain_delay_queue() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = delay_queue_.begin(); it != delay_queue_.end(); ++it) {
      if (deliverable(*it)) {
        CbcastMsg msg = std::move(*it);
        delay_queue_.erase(it);
        deliver(msg);
        progress = true;
        break;
      }
    }
  }
}

}  // namespace co::baselines
