// CoObserver — the single protocol-observation interface.
//
// It replaces the former quartet of optional std::function trace hooks
// (trace_send, trace_accept, trace_event, trace_stage) and the per-node
// transport taps with one virtual interface:
//   * one pointer held by CoCore instead of four std::functions (each of
//     which cost an allocation and a null check per milestone);
//   * a null-object default (null_observer()) so emitters never branch on
//     "is a hook set" — they always call through the observer;
//   * MulticastObserver to combine independent consumers (a cluster's
//     bookkeeping + a user's tap) without the callers knowing.
//
// Callback contract:
//   on_send    once per original broadcast, never for retransmissions;
//              is_data distinguishes application PDUs from ack-only
//              confirmations.
//   on_stage   lifecycle milestone for the span tracker; at the same sim
//              time kDeliver is reported before the kAck that completes
//              the span. kAccept is the acceptance action for `key` (the
//              paper's receipt event r_i[p], which the causality oracle
//              records).
//   on_event   structured protocol event in the interned categories of
//              src/co/trace_categories.h, emitted at the off-milestone
//              sites on_send/on_stage do not cover (dup, malformed, f1,
//              f2, ret, rtx, probe). `arg` is a small category-specific
//              payload (see each emitter). Fired unconditionally — these
//              sites are off the steady-state hot path, and the null
//              observer makes the call free.
//
// The three callbacks are the protocol's whole event vocabulary. Drivers
// turn each into one 32-byte binary trace record (src/obs/trace); records
// feed the fuzz digest, the flight recorder and the Perfetto export, and
// `co_inspect trace` renders them for humans.
#pragma once

#include <cstdint>
#include <vector>

#include "src/causality/pdu_key.h"
#include "src/co/trace_categories.h"
#include "src/obs/stage.h"

namespace co::proto {

using causality::PduKey;

class CoObserver {
 public:
  virtual ~CoObserver() = default;

  virtual void on_send(const PduKey& key, bool is_data) {
    (void)key;
    (void)is_data;
  }
  virtual void on_stage(obs::PduStage stage, const PduKey& key) {
    (void)stage;
    (void)key;
  }
  virtual void on_event(cat::CatId id, const PduKey& key, std::uint32_t arg) {
    (void)id;
    (void)key;
    (void)arg;
  }
};

/// Shared no-op observer — the null object CoCore's observer defaults to,
/// so protocol code never null-checks before notifying.
inline CoObserver& null_observer() {
  static CoObserver obs;
  return obs;
}

/// Fans every callback out to a list of child observers, in insertion
/// order. Non-owning; ignores nullptr children so call sites can add
/// optional taps unconditionally.
class MulticastObserver final : public CoObserver {
 public:
  MulticastObserver() = default;

  void add(CoObserver* child) {
    if (child != nullptr) children_.push_back(child);
  }
  std::size_t size() const { return children_.size(); }

  void on_send(const PduKey& key, bool is_data) override {
    for (CoObserver* c : children_) c->on_send(key, is_data);
  }
  void on_stage(obs::PduStage stage, const PduKey& key) override {
    for (CoObserver* c : children_) c->on_stage(stage, key);
  }
  void on_event(cat::CatId id, const PduKey& key, std::uint32_t arg) override {
    for (CoObserver* c : children_) c->on_event(id, key, arg);
  }

 private:
  std::vector<CoObserver*> children_;
};

}  // namespace co::proto
