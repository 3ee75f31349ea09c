#include "src/driver/driver.h"

#include <algorithm>
#include <utility>
#include <variant>

namespace co::driver {

Driver::Driver(proto::CoCore& core, Env& env, proto::EffectBatch& batch,
               EffectTap* tap)
    : core_(core), env_(env), tap_(tap), batch_(batch) {}

void Driver::on_message(EntityId from, const proto::Message& msg,
                        time::Tick now) {
  // Copying the Message bumps a PduRef refcount for data PDUs (the steady
  // state); only the rare RetPdu copies its vectors.
  dispatch(proto::Input{now, env_.free_buffer(),
                        proto::MessageArrived{from, msg}});
}

void Driver::on_messages(std::vector<proto::MessageArrived>& arrivals,
                         time::Tick now) {
  if (arrivals.empty()) return;
  const BufUnits buf = env_.free_buffer();
  inputs_.clear();
  inputs_.reserve(arrivals.size());
  for (proto::MessageArrived& a : arrivals)
    inputs_.push_back(proto::Input{now, buf, std::move(a)});
  arrivals.clear();
  batch_.clear();
  core_.step(inputs_.data(), inputs_.size(), batch_);
  inputs_.clear();
  replay(now);
}

void Driver::submit(std::vector<std::uint8_t> data, proto::DstMask dst,
                    time::Tick now) {
  if (tracer_ != nullptr)
    tracer_->emit(obs::trace::EventId::kSubmit, now, core_.self(), kNoEntity,
                  obs::trace::kSeqNone,
                  static_cast<std::uint32_t>(
                      std::min<std::size_t>(data.size(), 0xffffffffu)));
  dispatch(proto::Input{now, env_.free_buffer(),
                        proto::AppSubmit{std::move(data), dst}});
}

void Driver::tick(time::Tick now) {
  dispatch(proto::Input{now, env_.free_buffer(), proto::Tick{}});
}

void Driver::fire(proto::TimerId timer, time::Tick now) {
  if (tracer_ != nullptr)
    tracer_->emit(obs::trace::EventId::kTimerFire, now, core_.self(),
                  kNoEntity, obs::trace::kSeqNone,
                  static_cast<std::uint32_t>(timer));
  dispatch(proto::Input{now, env_.free_buffer(), proto::TimerFired{timer}});
}

void Driver::dispatch(proto::Input input) {
  const time::Tick now = input.at;
  batch_.clear();
  core_.step(std::move(input), batch_);
  replay(now);
}

void Driver::replay(time::Tick now) {
  if (batch_.empty() && batch_.records.empty()) return;
  if (tap_ != nullptr) tap_->on_effects(core_.self(), now, batch_);
  if (!batch_.records.empty()) env_.trace(batch_.records);
  for (proto::Effect& effect : batch_.effects) {
    if (auto* b = std::get_if<proto::BroadcastEffect>(&effect)) {
      env_.broadcast(std::move(b->msg));
    } else if (const auto* d = std::get_if<proto::DeliverEffect>(&effect)) {
      env_.deliver(*d->pdu);
    } else if (const auto* arm = std::get_if<proto::ArmTimerEffect>(&effect)) {
      // seq carries the absolute deadline so the Perfetto track shows how
      // far out the timer was armed; arg identifies which timer.
      if (tracer_ != nullptr)
        tracer_->emit(obs::trace::EventId::kTimerArm, now, core_.self(),
                      kNoEntity, static_cast<std::uint64_t>(arm->deadline),
                      static_cast<std::uint32_t>(arm->timer));
      env_.arm(arm->timer, arm->deadline);
    } else {
      const auto timer = std::get<proto::CancelTimerEffect>(effect).timer;
      if (tracer_ != nullptr)
        tracer_->emit(obs::trace::EventId::kTimerCancel, now, core_.self(),
                      kNoEntity, obs::trace::kSeqNone,
                      static_cast<std::uint32_t>(timer));
      env_.cancel(timer);
    }
  }
}

}  // namespace co::driver
