// StepHarness — drives one sans-io CoCore for unit tests.
//
// The harness plays the role of a driver: it stamps every input with a
// manually advanced clock, runs the core through a driver::Driver over a
// TimerWheel-backed Env (the host runtime's timer path), and records every
// Broadcast/Deliver effect plus the send and accept trace records each
// step hands its Env.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/causality/pdu_key.h"
#include "src/co/core.h"
#include "src/co/time.h"
#include "src/driver/driver.h"
#include "src/driver/timer_wheel.h"
#include "src/obs/trace/events.h"

namespace co::proto {

class StepHarness final : public driver::Env {
 public:
  StepHarness(EntityId self, const CoConfig& config, BufUnits free_buf = 4096)
      : free_buf_(free_buf),
        core_(self, config),
        driver_(core_, *this, batch_) {}

  CoCore& core() { return core_; }

  // --- Inputs, stamped with the harness clock ------------------------------

  void on_message(EntityId from, const Message& msg) {
    driver_.on_message(from, msg, now_);
  }
  void submit(std::vector<std::uint8_t> data, DstMask dst = kEveryone) {
    driver_.submit(std::move(data), dst, now_);
  }
  void tick() { driver_.tick(now_); }

  /// Advance the clock to `deadline_time`, firing every timer at its exact
  /// deadline (mirroring the scheduler's run_until semantics).
  void run_until(time::Tick t) {
    while (const auto next = wheel_.next_deadline()) {
      if (*next > t) break;
      if (*next > now_) now_ = *next;
      while (const auto due = wheel_.pop_due(now_)) driver_.fire(*due, now_);
    }
    if (t > now_) now_ = t;
  }

  time::Tick now() const { return now_; }
  void set_free_buffer(BufUnits b) { free_buf_ = b; }

  // --- Recorded outputs -----------------------------------------------------

  std::vector<Message> broadcasts;
  std::vector<CoPdu> delivered;
  std::vector<PduKey> traced_sends;
  std::vector<PduKey> traced_accepts;

  std::vector<CoPdu> data_broadcasts() const {
    std::vector<CoPdu> out;
    for (const auto& m : broadcasts)
      if (const auto* p = std::get_if<PduRef>(&m)) out.push_back(**p);
    return out;
  }
  std::vector<RetPdu> ret_broadcasts() const {
    std::vector<RetPdu> out;
    for (const auto& m : broadcasts)
      if (const auto* r = std::get_if<RetPdu>(&m)) out.push_back(*r);
    return out;
  }
  std::size_t ctrl_count() const {
    std::size_t c = 0;
    for (const auto& m : broadcasts)
      if (const auto* p = std::get_if<PduRef>(&m))
        if (!(*p)->is_data()) ++c;
    return c;
  }

 private:
  // driver::Env
  void trace(std::span<const obs::trace::Record> step) override {
    for (const obs::trace::Record& r : step) {
      const PduKey key{r.origin, r.seq};
      const auto event = static_cast<obs::trace::EventId>(r.event);
      if (event == obs::trace::EventId::kSend) traced_sends.push_back(key);
      if (event == obs::trace::EventId::kAccept) traced_accepts.push_back(key);
    }
  }
  void broadcast(Message&& msg) override {
    broadcasts.push_back(std::move(msg));
  }
  void deliver(const CoPdu& pdu) override { delivered.push_back(pdu); }
  void arm(TimerId timer, time::Deadline deadline) override {
    wheel_.arm(timer, deadline);
  }
  void cancel(TimerId timer) override { wheel_.cancel(timer); }
  BufUnits free_buffer() override { return free_buf_; }

  time::Tick now_ = 0;
  BufUnits free_buf_;
  CoCore core_;
  EffectBatch batch_;
  driver::TimerWheel wheel_;
  driver::Driver driver_;
};

}  // namespace co::proto
