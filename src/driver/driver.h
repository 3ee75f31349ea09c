// Driver — animates one CoCore in whatever environment owns it.
//
// Every entity runtime is the same loop: stamp an input (a PDU arrival, a
// DT request, a timer firing, an idle pump) with the caller's clock, step
// the core, and replay the effects it emits into an Env immediately, in
// emission order. The simulator (proto::CoCluster) and the UDP host
// (host::EntityRuntime) differ only in their Env: where a broadcast goes,
// and where an armed timer lives — a scheduler event or a TimerWheel. The
// driver itself has ZERO src/sim dependencies, which is what makes the UDP
// host deployable without linking the simulator.
//
// Replay discipline: broadcasts reach the Env in emission order and timer
// arms/cancels are forwarded in emission order, within the same call. The
// simulator relies on this for bit-identical runs (transit events and timer
// events consume scheduler sequence numbers in a fixed order). Nothing in
// the replay re-enters the core.
//
// Timers: the core's one-shot timers are armed and cancelled through
// Env::arm/cancel; when one falls due, the Env's owner calls fire(). The
// Env must have disarmed the timer by then (a spent scheduler handle, a
// popped wheel slot), so the slot reads non-pending inside the handler —
// the contract TimerFired documents.
//
// The clock domain is the caller's (scheduler time, or nanoseconds since a
// host's epoch); the core only subtracts and compares ticks. The driver
// owns one EffectBatch and reuses it across steps, so driving adds no
// steady-state allocations.
#pragma once

#include <vector>

#include "src/co/core.h"
#include "src/co/effects.h"
#include "src/co/time.h"
#include "src/driver/effect_tap.h"
#include "src/obs/trace/tracer.h"

namespace co::driver {

/// The I/O boundary an entity runtime implements. Virtual dispatch is fine
/// here: these run once per effect at the edge, not in the protocol.
class Env {
 public:
  virtual ~Env() = default;

  /// Put `msg` on the medium, to every peer. Taken by rvalue: the driver is
  /// done with it, so an in-process medium can keep the PduRef it moves.
  virtual void broadcast(proto::Message&& msg) = 0;
  /// Hand an acknowledged data PDU to the application.
  virtual void deliver(const proto::CoPdu& pdu) = 0;
  /// Arm `timer` to fall due at `deadline` (the core cancels before it
  /// re-arms, so overwriting is the full story).
  virtual void arm(proto::TimerId timer, time::Deadline deadline) = 0;
  /// Disarm `timer`; a no-op when it is not armed.
  virtual void cancel(proto::TimerId timer) = 0;
  /// Free ingress-buffer units to advertise as BUF. Real sockets expose no
  /// portable count, so the default is a generous constant (the kernel
  /// buffer dwarfs the protocol's 2nW working set).
  virtual BufUnits free_buffer() { return BufUnits{1u << 16}; }
};

class Driver {
 public:
  /// `core`, `env` and the tap (optional) are borrowed, not owned; all
  /// must outlive the driver.
  Driver(proto::CoCore& core, Env& env, EffectTap* tap = nullptr);

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// A message from `from` arrived at tick `now`.
  void on_message(EntityId from, const proto::Message& msg, time::Tick now);

  /// Batched arrival ingest: every element of `arrivals` is dispatched as
  /// ONE core step stamped at `now`, so the receipt pipeline (PACK/ACK
  /// scan, sent-log prune, confirmation decision) runs once per socket
  /// burst instead of once per datagram — the wire-side counterpart of the
  /// sans-io core's batch contract. `arrivals` is consumed (moved from)
  /// and cleared, ready for the caller to refill.
  void on_messages(std::vector<proto::MessageArrived>& arrivals,
                   time::Tick now);

  /// Application DT request at tick `now`.
  void submit(std::vector<std::uint8_t> data, proto::DstMask dst,
              time::Tick now);

  /// Idle pump (retry queued data + the confirmation decision) at `now`.
  void tick(time::Tick now);

  /// `timer` fell due at `now`; the Env has already disarmed it.
  void fire(proto::TimerId timer, time::Tick now);

  proto::CoCore& core() { return core_; }

  /// Attach a binary event tracer (not owned; null = off). The driver emits
  /// kSubmit on every DT request, kTimerArm/kTimerCancel as timer effects
  /// are replayed and kTimerFire in fire() — the runtime complement of the
  /// protocol milestones the core's own observer reports.
  void set_tracer(obs::trace::Tracer* tracer) { tracer_ = tracer; }

 private:
  void dispatch(proto::Input input);
  /// Show the batch to the tap, then replay it into the Env.
  void replay(time::Tick now);

  proto::CoCore& core_;
  Env& env_;
  EffectTap* tap_;
  obs::trace::Tracer* tracer_ = nullptr;
  proto::EffectBatch batch_;  // reused across steps
  std::vector<proto::Input> inputs_;  // reused by on_messages
};

}  // namespace co::driver
