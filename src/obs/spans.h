// Per-PDU lifecycle span tracker.
//
// A span starts when a data PDU is broadcast and collects, per observer
// entity, the park/accept/pack/deliver/ack milestones. It folds the core's
// binary trace records (src/obs/trace/record.h) through on_record(): a
// kSend with a nonzero arg opens a span, and the five stage events of the
// record's actor fill it. From those it derives the paper's stage
// decomposition as per-entity latency histograms (milliseconds):
//
//   network   = first receipt − send      (MC service + ingress queueing)
//   park      = accept − first receipt    (out-of-order parking, §4.3)
//   pack_wait = pre-ack − accept          (PACK condition wait, §4.4)
//   ack_wait  = ack − pre-ack             (ACK condition wait, §4.5)
//   total     = ack − send                (== delivery latency: the ACK
//                                          action hands the PDU to the app)
//
// total is exactly the sum of the four stages by construction, and matches
// the harness tap_ms sample for the same (observer, PDU) pair.
//
// The tracker also keeps a bounded top-k of the slowest completed spans
// (worst observer per PDU) for the co_inspect breakdown table.
#pragma once

#include <cstddef>
#include <deque>
#include <unordered_map>
#include <vector>

#include "src/causality/pdu_key.h"
#include "src/common/types.h"
#include "src/obs/metrics.h"
#include "src/obs/trace/record.h"
#include "src/co/time.h"

namespace co::obs {

/// One completed span as reported by PduSpanTracker::slowest(). Stage
/// figures come from the worst (slowest-total) observer of that PDU.
struct SlowPdu {
  causality::PduKey key;
  EntityId worst_observer = kNoEntity;
  time::Tick sent_at = 0;
  double network_ms = 0.0;
  double park_ms = 0.0;
  double pack_wait_ms = 0.0;
  double ack_wait_ms = 0.0;
  double total_ms = 0.0;
};

class PduSpanTracker {
 public:
  /// Registers the stage histograms (`co_stage_latency_ms{entity,stage}`),
  /// submit-queue-wait histograms, and span gauges/counters with `registry`
  /// for an n-entity cluster. `registry` must outlive the tracker.
  PduSpanTracker(std::size_t n, MetricsRegistry* registry,
                 std::size_t top_k = 10);

  PduSpanTracker(const PduSpanTracker&) = delete;
  PduSpanTracker& operator=(const PduSpanTracker&) = delete;

  /// Application DT request queued at `entity` (SEQ not yet assigned).
  void on_submit(EntityId entity, time::Tick at);

  /// Fold one protocol record. kSend of a data PDU (arg != 0; the core
  /// never records retransmissions as sends) opens a span and consumes the
  /// oldest pending submit at the source. kPark, kAccept, kPack, kDeliver
  /// and kAck are milestones at the record's actor; for unknown keys
  /// (ack-only PDUs, spans opened before attach) they are ignored, as is
  /// every other event.
  void on_record(const trace::Record& r);

  /// Completed spans, slowest first (at most top_k).
  std::vector<SlowPdu> slowest() const;

  std::size_t inflight() const { return spans_.size(); }
  std::uint64_t completed() const { return completed_; }

 private:
  struct Observer {
    time::Tick first_seen = -1;
    time::Tick accepted = -1;
    time::Tick packed = -1;
    time::Tick acked = -1;
    bool delivered = false;
  };
  struct Span {
    time::Tick sent = -1;
    std::vector<Observer> observers;
    std::size_t acked = 0;
  };
  struct StageHists {
    Histogram* network = nullptr;
    Histogram* park = nullptr;
    Histogram* pack_wait = nullptr;
    Histogram* ack_wait = nullptr;
    Histogram* total = nullptr;
    Histogram* queue_wait = nullptr;
  };

  void finish_span(const causality::PduKey& key, const Span& span);

  std::size_t n_;
  std::size_t top_k_;
  std::vector<StageHists> hists_;  // per observer entity
  Counter* spans_completed_ = nullptr;
  std::vector<std::deque<time::Tick>> pending_submits_;  // per source
  std::unordered_map<causality::PduKey, Span, causality::PduKeyHash> spans_;
  std::uint64_t completed_ = 0;
  std::vector<SlowPdu> slowest_;  // unsorted bounded pool; sorted on demand
};

}  // namespace co::obs
