// Inputs and effects — the sans-io boundary of the CO core.
//
// The core never performs I/O. A driver hands it a batch of Inputs (PDU
// arrivals, timer firings, application DT requests, idle ticks), each
// stamped with the current time and the entity's free ingress-buffer count,
// and the core appends to a caller-owned EffectBatch:
//   * typed Effects (broadcast, deliver, arm/cancel timer), which the driver
//     replays into its environment *in emission order* — that order is part
//     of the protocol's determinism contract: the simulator assigns
//     scheduler sequence numbers as it replays, so two drivers replaying the
//     same effect stream reproduce the same execution bit-for-bit;
//   * binary trace records (src/obs/trace/record.h), one per protocol
//     milestone — send, accept r_i[p], park, pre-ack, deliver, ack and the
//     loss/recovery events — stamped with the input's time and this entity
//     as actor. They are the core's whole event vocabulary: the fuzz digest,
//     the flight recorder, Perfetto, the span tracker and the causality
//     oracle all read them.
//
// Everything here is plain data: no callbacks, no virtual dispatch, no
// std::function. The only indirection left on the hot path is the PduRef
// refcount shared with the pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <variant>
#include <vector>

#include "src/co/pdu.h"
#include "src/co/time.h"
#include "src/common/types.h"
#include "src/obs/trace/record.h"

namespace co::proto {

/// The core's one-shot timers. Each entity owns exactly one of each; re-arm
/// while pending is a no-op (the core tracks pending-ness itself and emits
/// ArmTimer/CancelTimer effects only on state changes).
enum class TimerId : std::uint8_t {
  kDefer = 0,       // deferred-confirmation / tail-loss probe timer (§4.2)
  kRetransmit = 1,  // RET retry timer (§4.3)
};
inline constexpr std::size_t kTimerCount = 2;

inline const char* timer_name(TimerId id) {
  switch (id) {
    case TimerId::kDefer: return "defer";
    case TimerId::kRetransmit: return "retransmit";
  }
  return "?";
}

// --- Inputs ----------------------------------------------------------------

/// A message from `from` survived the MC service and reaches this entity.
struct MessageArrived {
  EntityId from = kNoEntity;
  Message msg;
};

/// A previously armed timer fired. The driver must clear its own pending
/// state *before* dispatching this input (the core does the same), so a
/// handler observing "not pending" can re-arm.
struct TimerFired {
  TimerId timer = TimerId::kDefer;
};

/// Application DT request: queue `data` for broadcast to `dst`.
struct AppSubmit {
  std::vector<std::uint8_t> data;
  DstMask dst = kEveryone;
};

/// Idle tick: retry queued DT requests and the confirmation decision (used
/// by tests and drivers that want to poke the core without new input).
struct Tick {};

/// One unit of work for CoCore::step. `at` is the driver's current time;
/// `free_buffer` is this entity's free ingress-buffer units at that instant
/// (advertised as BUF in outgoing PDUs). All inputs of one batch should
/// carry the same `at` — a batch models one instant of driver time.
struct Input {
  time::Tick at = 0;
  BufUnits free_buffer = 0;
  std::variant<MessageArrived, TimerFired, AppSubmit, Tick> event;
};

// --- Effects ---------------------------------------------------------------

/// Put a message on the MC network (to all entities, possibly lost).
struct BroadcastEffect {
  Message msg;
};

/// Hand an acknowledged data PDU to the application (ARL dequeue).
struct DeliverEffect {
  PduRef pdu;
};

/// Arm one-shot timer `timer` to fire at absolute time `deadline`. The core
/// never re-arms a pending timer without cancelling first, so a driver may
/// simply overwrite the slot.
struct ArmTimerEffect {
  TimerId timer = TimerId::kDefer;
  time::Deadline deadline = 0;
};

/// Cancel timer `timer`. Emitted only while the core believes the timer is
/// pending; cancelling an already-fired slot must be a no-op in the driver.
struct CancelTimerEffect {
  TimerId timer = TimerId::kDefer;
};

using Effect =
    std::variant<BroadcastEffect, DeliverEffect, ArmTimerEffect,
                 CancelTimerEffect>;

/// Flat, caller-owned effect sink. Drivers clear() and reuse one batch
/// across steps, so the steady state allocates nothing here either.
/// Iteration, size() and empty() cover the effects; `records` is the step's
/// trace-record stream beside them (the stream field is left 0 for the
/// tracer that stores a record to assign).
struct EffectBatch {
  std::vector<Effect> effects;
  std::vector<obs::trace::Record> records;

  void clear() {
    effects.clear();
    records.clear();
  }
  bool empty() const { return effects.empty(); }
  std::size_t size() const { return effects.size(); }
  const Effect& operator[](std::size_t i) const { return effects[i]; }

  auto begin() const { return effects.begin(); }
  auto end() const { return effects.end(); }

  template <typename E>
  void emit(E&& effect) {
    effects.emplace_back(std::forward<E>(effect));
  }
};

}  // namespace co::proto
