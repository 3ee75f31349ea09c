// TracingObserver — CoObserver -> Tracer bridge.
//
// CoCore callbacks carry no timestamps (the sans-io core never reads a
// clock), so whoever owns the driver clock sets the current tick on the
// bridge before dispatching into the core:
//   * the sim cluster's per-entity observer stamps scheduler time;
//   * a host::Shard stamps the realtime driver's monotonic now before
//     each ingest/submit/timer batch.
//
// Every protocol category maps to the identically-valued EventId, so the
// bridge is three trivial forwarders; the causal context (origin, seq) is
// the PduKey the core already reports.
#pragma once

#include "src/co/observer.h"
#include "src/obs/stage.h"
#include "src/obs/trace/tracer.h"

namespace co::obs::trace {

class TracingObserver final : public proto::CoObserver {
 public:
  /// `self` is the entity whose track the bridged events land on.
  TracingObserver(Tracer& tracer, EntityId self)
      : tracer_(tracer), self_(self) {}

  void set_now(time::Tick now) { now_ = now; }
  time::Tick now() const { return now_; }

  void on_send(const causality::PduKey& key, bool is_data) override {
    tracer_.emit(EventId::kSend, now_, self_, key.src, key.seq,
                 is_data ? 1 : 0);
  }
  void on_stage(PduStage stage, const causality::PduKey& key) override {
    tracer_.emit(to_event(stage_cat(stage)), now_, self_, key.src, key.seq);
  }
  void on_event(proto::cat::CatId id, const causality::PduKey& key,
                std::uint32_t arg) override {
    tracer_.emit(to_event(id), now_, self_, key.src, key.seq, arg);
  }

 private:
  Tracer& tracer_;
  EntityId self_;
  time::Tick now_ = 0;
};

}  // namespace co::obs::trace
