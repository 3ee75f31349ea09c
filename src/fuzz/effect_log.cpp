#include "src/fuzz/effect_log.h"

#include <sstream>

namespace co::fuzz {
namespace {

using proto::ArmTimerEffect;
using proto::BroadcastEffect;
using proto::CancelTimerEffect;
using proto::DeliverEffect;

// Stable per-kind tags folded ahead of each effect's payload identity.
enum : std::uint64_t {
  kTagBroadcastPdu = 1,
  kTagBroadcastRet = 2,
  kTagDeliver = 3,
  kTagArm = 4,
  kTagCancel = 5,
};

std::string render(EntityId entity, time::Tick at,
                   const proto::Effect& effect) {
  std::ostringstream os;
  os << 'E' << entity << " @" << at << ' ';
  if (const auto* b = std::get_if<BroadcastEffect>(&effect)) {
    if (const auto* p = std::get_if<proto::PduRef>(&b->msg)) {
      os << "broadcast " << ((*p)->is_data() ? "DT" : "CTRL") << ' '
         << (*p)->src << '#' << (*p)->seq;
    } else {
      const auto& r = std::get<proto::RetPdu>(b->msg);
      os << "broadcast RET " << r.src << " wants " << r.lsrc << '<' << r.lseq;
    }
  } else if (const auto* d = std::get_if<DeliverEffect>(&effect)) {
    os << "deliver " << d->pdu->src << '#' << d->pdu->seq;
  } else if (const auto* a = std::get_if<ArmTimerEffect>(&effect)) {
    os << "arm " << proto::timer_name(a->timer) << " @" << a->deadline;
  } else {
    os << "cancel "
       << proto::timer_name(std::get<CancelTimerEffect>(effect).timer);
  }
  return os.str();
}

}  // namespace

void EffectRecorder::fold(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    digest_ ^= (v >> (8 * i)) & 0xff;
    digest_ *= kFnvPrime;
  }
}

void EffectRecorder::on_effects(EntityId entity, time::Tick at,
                                const proto::EffectBatch& batch) {
  // Record-only steps (a dup, an f1 with nothing to send) fold nothing: the
  // effect digest pins the effect stream, and the record digest the records.
  if (batch.empty()) return;
  fold(static_cast<std::uint64_t>(entity));
  fold(static_cast<std::uint64_t>(at));
  for (const proto::Effect& effect : batch) {
    ++effects_;
    if (const auto* b = std::get_if<BroadcastEffect>(&effect)) {
      if (const auto* p = std::get_if<proto::PduRef>(&b->msg)) {
        fold(kTagBroadcastPdu);
        fold(static_cast<std::uint64_t>((*p)->src));
        fold((*p)->seq);
        fold((*p)->data.size());
      } else {
        const auto& r = std::get<proto::RetPdu>(b->msg);
        fold(kTagBroadcastRet);
        fold(static_cast<std::uint64_t>(r.src));
        fold(static_cast<std::uint64_t>(r.lsrc));
        fold(r.lseq);
      }
    } else if (const auto* d = std::get_if<DeliverEffect>(&effect)) {
      fold(kTagDeliver);
      fold(static_cast<std::uint64_t>(d->pdu->src));
      fold(d->pdu->seq);
    } else if (const auto* a = std::get_if<ArmTimerEffect>(&effect)) {
      fold(kTagArm);
      fold(static_cast<std::uint64_t>(a->timer));
      fold(static_cast<std::uint64_t>(a->deadline));
    } else {
      fold(kTagCancel);
      fold(static_cast<std::uint64_t>(
          std::get<CancelTimerEffect>(effect).timer));
    }
    if (sample_.size() < sample_limit_)
      sample_.push_back(render(entity, at, effect));
  }
}

}  // namespace co::fuzz
