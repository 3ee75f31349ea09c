// CoCore — one system entity E_i of the CO protocol (paper §4), as a
// sans-io effect machine.
//
// The core performs no I/O, and its protocol time is only what each Input
// carries. The one clock it reads is wall_ns(), around arrival ingest and the
// receipt pipeline, to account CoEntityStats::processing_ns (Tco); no
// protocol decision depends on it. A driver feeds it Inputs
// (src/co/effects.h) through step() and replays the typed Effects the core
// appends to a caller-owned EffectBatch:
//
//   driver time/network/app --Input--> CoCore::step --Effect--> driver I/O
//                                                   --Record--> consumers
//
// The one driver is src/driver/driver.h; its Env decides where timers live
// (scheduler events in the simulated CoCluster, a monotonic-clock
// TimerWheel in the UDP host).
// There are no callbacks, no virtual dispatch and no std::function on this
// path. Observation is output too: every protocol milestone is a binary
// trace record in EffectBatch::records, stamped with Input::at and this
// entity as actor, which the driver hands to its tap and Env before it
// replays the effects.
//
// Protocol state (paper §4.1):
//   SEQ        next sequence number to broadcast
//   REQ[j]     next sequence number expected from E_j
//   AL[j][k]   what E_i knows E_j expects next from E_k (from accepted ACKs)
//   PAL[j][k]  same, but sampled when E_j's PDUs become pre-acknowledged
//   BUF[j]     free buffer units at E_j as last advertised
// Logs: RRL_j (accepted, per source), PRL (pre-acknowledged, CPI-ordered),
// ARL (acknowledged => handed to the application), SL (sent, kept for
// selective retransmission until acknowledged everywhere).
//
// Batching: step() may take any number of inputs. PDU arrivals only mark
// the receipt pipeline dirty; the PACK/ACK scan, sent-log prune and the
// deferred-confirmation decision run once at the end of the batch instead
// of once per message. A batch of one is bit-identical to the pre-batching
// per-message path (the simulation drivers rely on that for digest
// stability); larger batches amortize the pipeline over N arrivals.
//
// Hot-path discipline: PDU bodies come from a per-entity PduPool and travel
// as shared PduRef handles through the SL/RRL/PRL/park structures, so the
// steady state allocates nothing per PDU (bench_micro counts this via the
// pool's bodies_allocated()).
#pragma once

#include <deque>
#include <sstream>
#include <string_view>
#include <optional>
#include <vector>

#include "src/causality/pdu_key.h"
#include "src/co/config.h"
#include "src/co/effects.h"
#include "src/co/kernels/kernels.h"
#include "src/co/kernels/layout.h"
#include "src/co/park_buffer.h"
#include "src/co/pdu.h"
#include "src/co/pool.h"
#include "src/co/prl.h"
#include "src/co/time.h"
#include "src/co/trace_categories.h"
#include "src/common/stats.h"
#include "src/common/types.h"

namespace co::proto {

/// Counters and measurements a single entity accumulates.
///
/// External readers (harness, observability instruments, tests asserting on
/// totals) should take snapshot() rather than holding references into the
/// live struct: the counters mutate on every protocol event.
struct CoEntityStats {
  // Traffic.
  std::uint64_t data_pdus_sent = 0;
  std::uint64_t ctrl_pdus_sent = 0;       // ack-only PDUs
  std::uint64_t ret_pdus_sent = 0;        // retransmission requests
  std::uint64_t retransmissions_sent = 0; // rebroadcast data/ctrl PDUs
  // Receipt pipeline.
  std::uint64_t pdus_accepted = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t foreign_cluster_dropped = 0;  // wrong CID
  std::uint64_t malformed_dropped = 0;  // wire-decodable but shape-invalid
  std::uint64_t parked_out_of_order = 0;
  std::uint64_t pre_acknowledged = 0;
  std::uint64_t acknowledged = 0;
  std::uint64_t delivered_to_app = 0;
  // Loss detection.
  std::uint64_t f1_detections = 0;
  std::uint64_t f2_detections = 0;
  std::uint64_t ret_retries = 0;
  std::uint64_t heartbeats_sent = 0;  // tail-loss probes
  // Flow control.
  std::uint64_t flow_blocked = 0;
  // Processing cost (Tco): wall-clock nanoseconds spent inside the protocol
  // handler, and the number of messages it processed.
  std::uint64_t processing_ns = 0;
  std::uint64_t messages_processed = 0;
  // Buffer occupancy high-watermarks (experiment E3).
  std::size_t max_rrl = 0;
  std::size_t max_prl = 0;
  std::size_t max_sl = 0;
  std::size_t max_parked = 0;
  // Latencies in simulated time (experiment E2).
  OnlineStats accept_to_pack_ms;
  OnlineStats accept_to_ack_ms;

  double tco_us_per_message() const {
    return messages_processed ? static_cast<double>(processing_ns) / 1e3 /
                                    static_cast<double>(messages_processed)
                              : 0.0;
  }

  /// A plain copy is already a stable snapshot, decoupled from further
  /// protocol progress: the supported way for src/obs instruments and the
  /// harness to read entity statistics.
  using Snapshot = CoEntityStats;
  Snapshot snapshot() const { return *this; }

  /// Aggregate another entity's stats: counters sum, the max_* high-
  /// watermarks take the larger, the latency accumulators merge.
  CoEntityStats& operator+=(const CoEntityStats& o);
};

std::ostream& operator<<(std::ostream& os, const CoEntityStats& s);

class CoCore {
 public:
  CoCore(EntityId self, CoConfig config);

  CoCore(const CoCore&) = delete;
  CoCore& operator=(const CoCore&) = delete;

  EntityId self() const { return self_; }
  const CoConfig& config() const { return config_; }
  const CoEntityStats& stats() const { return stats_; }

  /// The entity's PDU-body pool. bodies_allocated() is the hot-path
  /// allocation counter bench_micro tracks: flat once the run is warm.
  const PduPool& pool() const { return pool_; }

  /// Process a batch of inputs, appending every resulting effect to `out`
  /// (which the caller owns and clears between steps). Inputs are handled
  /// in order; PDU arrivals defer the PACK/ACK pipeline and the
  /// confirmation decision to the end of the batch (see file comment).
  void step(const Input* inputs, std::size_t count, EffectBatch& out);
  void step(Input input, EffectBatch& out) { step(&input, 1, out); }

  /// True while the core believes `timer` is armed (between an ArmTimer
  /// effect and the matching TimerFired input or CancelTimer effect).
  /// Exposed for drivers and the timer-semantics test suite.
  bool timer_pending(TimerId timer) const {
    return timer_pending_[static_cast<std::size_t>(timer)];
  }

  // --- Introspection (tests, benches, examples) ----------------------------

  SeqNo next_seq() const { return seq_; }
  SeqNo req(EntityId j) const { return req_.at(idx(j)); }
  SeqNo al(EntityId j, EntityId k) const { return al_.at(idx(j), idx(k)); }
  SeqNo pal(EntityId j, EntityId k) const {
    return pal_.at(idx(j), idx(k));
  }
  SeqNo min_al(EntityId k) const {
    flush_min_al();
    return min_al_[idx(k)];
  }
  SeqNo min_pal(EntityId k) const {
    flush_min_pal();
    return min_pal_[idx(k)];
  }

  /// The kernel backend this core dispatches its vector loops through
  /// (CoConfig::kernels override, else the process-wide selection).
  const kern::KernelOps& kernel_ops() const { return *kern_; }

  std::size_t rrl_size(EntityId j) const { return rrl_.at(idx(j)).size(); }
  std::size_t prl_size() const { return prl_.size(); }
  const Prl& prl() const { return prl_; }
  std::size_t sent_log_size() const { return sl_.size(); }
  std::size_t app_queue_depth() const { return app_queue_.size(); }

  /// PDUs accepted but not yet delivered (RRL + PRL) — the paper's O(n)
  /// buffer claim is about this quantity.
  std::size_t undelivered_buffered() const;

  /// Stability bound: every PDU from E_j with SEQ < stable_seq(j) is known
  /// to be pre-acknowledged at every entity (= acknowledged here), so it
  /// can never be requested again; applications can checkpoint/garbage-
  /// collect anything derived from those deliveries. This is the same
  /// quantity that prunes the sent log.
  SeqNo stable_seq(EntityId j) const { return min_pal(j); }

  /// True when the entity has nothing in flight it still must deliver:
  /// no parked PDUs, no known gaps, no queued app data, and every accepted
  /// data PDU delivered.
  bool quiescent() const;

  /// The flow condition of §4.2 (exposed for tests).
  bool flow_condition_holds() const;

  /// Knowledge-vector invariants the fuzzer oracle checks on every run
  /// (src/fuzz): PAL never ahead of AL, the own AL row mirrors REQ, the
  /// cached column minima match their tables, and the sent log covers
  /// exactly [sl_base, SEQ). Returns a description of the first violated
  /// invariant, or nullopt when all hold.
  std::optional<std::string> knowledge_invariant_violation() const;

  /// True while this entity itself still has data in flight (queued,
  /// undelivered, parked, or known-missing) — gates the fast confirm path.
  bool has_data_interest() const;

 private:
  std::size_t idx(EntityId id) const;

  /// Dispatch one input. Returns true when the receipt pipeline must run at
  /// the end of the batch (a same-cluster PDU or RET was ingested).
  bool apply(const Input& input);
  /// End-of-batch receipt pipeline: PACK/ACK scan, sent-log prune, window
  /// retry, confirmation decision — the old per-message on_message() tail.
  void run_receipt_pipeline();

  // --- Timers (as effects) -------------------------------------------------
  void arm_timer(TimerId timer, time::Duration delay);
  void cancel_timer(TimerId timer);

  // --- Transmission (§4.2) -------------------------------------------------
  /// Broadcast one PDU carrying `data` (empty => ack-only confirmation).
  void transmit(const std::vector<std::uint8_t>& data, DstMask dst = kEveryone);
  void send_pending_data();
  /// Deferred confirmation decision: a confirmation is owed if we accepted
  /// anything since our last send and someone may be waiting on our ACKs.
  bool confirmation_owed() const;
  /// Congestion guard for ack-only transmissions: when the backlog of our
  /// own unconfirmed PDUs is large (peers are dropping heavily), minting
  /// ever more SEQs only widens the ranges that must be retransmitted, so
  /// ctrl sends fall back to the slow retransmit_timeout cadence.
  bool ctrl_send_allowed() const;
  void maybe_confirm_now();
  void arm_defer_timer();
  void on_defer_timeout();

  // --- Receipt (§4.2, §4.3) -------------------------------------------------
  /// Ingest one arrived message (CID check + data/RET dispatch). Returns
  /// true when the receipt pipeline applies (same-cluster message).
  bool ingest(const MessageArrived& arrival);
  void handle_data(const PduRef& pdu);
  void handle_ret(const RetPdu& ret);
  /// Accept `pdu` (its SEQ == REQ[src]); acceptance action of §4.2.
  void accept(const PduRef& pdu);
  /// Drain parked out-of-order PDUs that became acceptable.
  void drain_parked(EntityId j);

  // --- Failure detection & recovery (§4.3) ----------------------------------
  /// Failure condition: PDUs [REQ[j], upto) from E_j are missing; request
  /// retransmission unless an equivalent request is already outstanding.
  void report_loss(EntityId j, SeqNo upto);
  /// Failure condition (2) over a received ACK vector.
  void scan_acks_for_loss(const std::vector<SeqNo>& ack);
  void send_ret(EntityId lsrc, SeqNo lseq);
  void arm_retransmit_timer();
  void on_retransmit_timer();
  void retransmit_range(EntityId requester, SeqNo from, SeqNo upto);

  // --- AL / PAL bookkeeping --------------------------------------------------
  // The knowledge tables live in flat cache-line-aligned SeqTables and the
  // column minima are cached with a dirty flag: row merges (the per-PDU
  // kernel) mark a table dirty when a changed lane's old value was the
  // cached minimum, and the first min read after that recomputes the WHOLE
  // min vector with one streaming column_mins kernel pass. Values are
  // identical to eager per-column refresh — minima are a pure function of
  // the table — but a batch of arrivals pays for one recompute instead of
  // one strided column walk per changed lane.
  /// Merge an ACK vector into row j of AL (monotonic); may mark min_al_
  /// dirty. Lanes beyond ack.size() (malformed short vectors) are ignored.
  void update_al_row(EntityId j, const std::vector<SeqNo>& ack);
  void update_pal_row(EntityId j, const std::vector<SeqNo>& ack);
  void flush_min_al() const {
    if (!min_al_dirty_) return;
    kern_->column_mins(al_.data(), al_.rows(), al_.cols(), al_.stride(),
                       min_al_.data());
    min_al_dirty_ = false;
  }
  void flush_min_pal() const {
    if (!min_pal_dirty_) return;
    kern_->column_mins(pal_.data(), pal_.rows(), pal_.cols(), pal_.stride(),
                       min_pal_.data());
    min_pal_dirty_ = false;
  }

  // --- PACK / ACK procedures (§4.4, §4.5) -------------------------------------
  /// Whether the causal pre-ack gate is in force (see DESIGN.md).
  bool causal_gate_on() const;
  /// Causal pre-ack gate: config_.n when every detected predecessor of `p`
  /// has already been pre-acknowledged locally, else the first source lane
  /// whose predecessor is still missing.
  std::size_t causal_blocker(const CoPdu& p) const;
  void run_pack_action();
  /// Pack RRL_j heads into the PRL while the PACK condition and the causal
  /// gate admit them; refreshes rrl_head_seq_[j] and, when the gate stops
  /// it, gate_block_[j]. Returns true on progress.
  bool pack_from(std::size_t j);
  void run_ack_action();
  void prune_sent_log();

  // --- Metrics ----------------------------------------------------------------
  // Latency timestamps ride intrusively in the log entries (Prl::Entry
  // carries accepted_at through RRL -> PRL), so there is no per-PDU side
  // table on the hot path.
  void note_pack_time(const Prl::Entry& entry);
  void note_ack_time(const Prl::Entry& entry);

  // --- Trace records -----------------------------------------------------------
  /// Append milestone `id` for `key` to the step's record stream, stamped
  /// with the input's time and this entity as actor.
  void record(cat::CatId id, const PduKey& key, std::uint32_t arg = 0) {
    out_->records.push_back(obs::trace::Record{
        now_, key.seq, key.src, self_, static_cast<std::uint16_t>(id), 0,
        arg});
  }

  EntityId self_;
  CoConfig config_;
  CoEntityStats stats_;

  // Recycling allocator for every PDU body this entity broadcasts.
  PduPool pool_;

  // Step context: the input's timestamp and free-buffer sample, and the
  // caller's effect and record sink. Valid only inside step().
  time::Tick now_ = 0;
  BufUnits free_buffer_ = 0;
  EffectBatch* out_ = nullptr;

  // One pending flag per one-shot timer, mirroring the driver's slots: set
  // on ArmTimer, cleared on CancelTimer and before a TimerFired dispatches.
  bool timer_pending_[kTimerCount] = {false, false};

  // Kernel backend for the O(n) vector loops: the CoConfig override when
  // set, else the process-wide ISA selection. Fixed at construction.
  const kern::KernelOps* kern_;

  // Protocol variables (§4.1). The AL/PAL knowledge matrices are flat
  // row-major 64-byte-aligned tables (stride padded to a whole SIMD block)
  // and their column minima are cached lazily — see the bookkeeping note
  // above flush_min_al().
  SeqNo seq_ = kFirstSeq;
  std::vector<SeqNo> req_;
  kern::SeqTable al_;
  kern::SeqTable pal_;
  std::vector<BufUnits> buf_;
  mutable kern::AlignedVec<SeqNo> min_al_;   // min over rows of AL[.][k]
  mutable kern::AlignedVec<SeqNo> min_pal_;  // min over rows of PAL[.][k]
  mutable bool min_al_dirty_ = false;
  mutable bool min_pal_dirty_ = false;

  // Logs. Entries share PDU bodies with the network/SL via PduRef; the
  // Prl::Entry pair carries the acceptance timestamp for E2 latencies.
  std::vector<std::deque<Prl::Entry>> rrl_;  // accepted, per source
  // SEQ at the head of each RRL (kNoSeq when empty), kept in a dense
  // aligned lane array so the PACK sweep's `head < minAL_j` candidate test
  // is one lt_mask kernel pass instead of n deque-front dereferences.
  kern::AlignedVec<SeqNo> rrl_head_seq_;
  Prl prl_;                                  // pre-acknowledged (CPI order)
  std::deque<PduRef> sl_;                    // sent, awaiting global ack
  std::deque<time::Tick> sl_resent_at_;  // last rebroadcast per SL entry
  SeqNo sl_base_ = kFirstSeq;           // SEQ of sl_.front()

  // Out-of-order arrivals parked until the gap fills (selective repeat);
  // flat ring per source, indexed by SEQ - REQ[j].
  std::vector<ParkBuffer> parked_;

  // Highest SEQ known to exist per source (from SEQs and ACK fields); used
  // to re-detect losses on the retry timer.
  std::vector<SeqNo> known_max_;

  // Kernel scratch: lane bitmasks for the F(2) loss scan and the PACK
  // candidate sweep, sized mask_words(n) at construction. Never nested —
  // the loss scan runs during ingest, the PACK sweep in the batch tail.
  kern::AlignedVec<std::uint64_t> loss_mask_;
  kern::AlignedVec<std::uint64_t> pack_mask_;

  // Highest SEQ per source moved into the PRL (pre-acknowledged); drives
  // the causal pre-ack gate.
  std::vector<SeqNo> packed_high_;

  // Per source, the RRL head the causal gate last stopped on: its SEQ, the
  // first failing lane and that lane's ACK. While the head is unchanged and
  // need > packed_high_[lane] + 1 still holds, the gate would fail again,
  // so the PACK sweep skips the source without re-running the gate.
  struct GateBlock {
    SeqNo head = kNoSeq;
    std::size_t lane = 0;
    SeqNo need = 0;
  };
  std::vector<GateBlock> gate_block_;

  // Outstanding retransmission requests: lsrc -> (lseq requested, when,
  // exponential backoff multiplier for retries under sustained loss).
  struct RetRequest {
    SeqNo lseq = 0;
    time::Tick at = 0;
    std::uint32_t backoff = 1;
  };
  std::vector<std::optional<RetRequest>> outstanding_ret_;

  // Deferred confirmation state. heard_since_send_ is a byte-per-entity
  // flag array (not vector<bool>) so the heard-all check is one all_set
  // kernel pass over contiguous bytes.
  time::Tick last_ctrl_tx_ = -1;
  std::vector<std::uint8_t> heard_since_send_;
  bool accepted_since_send_ = false;
  bool data_accepted_since_send_ = false;

  // Application send queue (payload + destination set).
  struct DtRequest {
    std::vector<std::uint8_t> data;
    DstMask dst = kEveryone;
  };
  std::deque<DtRequest> app_queue_;

  // Data PDUs accepted but not yet delivered to the application.
  std::uint64_t undelivered_data_ = 0;

  // SEQs of own data PDUs not yet accepted cluster-wide (window accounting;
  // pruned lazily against minAL_self inside flow_condition_holds).
  mutable std::deque<SeqNo> outstanding_data_;
};

}  // namespace co::proto

namespace co {
/// The core is the package's headline type; export it at namespace scope.
using proto::CoCore;
}  // namespace co
