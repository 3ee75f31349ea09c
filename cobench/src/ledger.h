// Stage ledger: turns the records of a traced run into per-stage waits.
//
// A delivery's tap (due -> application callback at one receiver) is split
// at the boundaries the tracer records, so the stages telescope:
//
//   due -> submit call        gen_late   (generator lateness, open loop)
//   call -> submit returns    submit     (Host::submit, timed by the bench)
//   return -> kSubmit         ring_wait  (SPSC ring until the shard drains)
//   kSubmit -> data kSend     queue_wait (app queue / window in the core)
//   kSend -> kAccept          transit    (origin's send to receiver accept)
//   kAccept -> kPack          pack_wait
//   kPack -> kDeliver         ack_wait   (ACK condition and ARL dequeue)
//   kDeliver -> callback      callback   (rest of the shard step)
//
// The k-th accepted submit of an entity is its k-th kSubmit record and its
// k-th data kSend (FIFO ring, FIFO app queue); receiver stages are keyed by
// the PDU's (origin, seq). A delivery whose chain is incomplete is left out
// of the stage means; the residual (mean tap over every delivery minus the
// sum of stage means) shows how much of the tap the ledger misses.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cobench/src/bench.h"
#include "src/obs/trace/record.h"
#include "src/obs/trace/sink.h"

namespace cobench {

/// TraceSink keeping the records build_ledger needs in memory, for a
/// streaming Tracer (overwrite_oldest = false): nothing is dropped, memory
/// grows with the traced window. Batches arrive under the tracer's mutex,
/// one at a time, and each stream's batches arrive in append order.
class RecordSink final : public co::obs::trace::TraceSink {
 public:
  void on_records(std::uint16_t stream, const co::obs::trace::Record* records,
                  std::size_t count, std::uint64_t dropped_so_far) override;

  /// Records kept, in drain order.

  const std::vector<std::vector<co::obs::trace::Record>>& chunks() const {
    return chunks_;
  }

 private:
  std::vector<std::vector<co::obs::trace::Record>> chunks_;
};

/// Times of one accepted submit, in the trace clock.
struct SubmitTimes {
  std::int64_t due = 0;
  std::int64_t call = 0;
  std::int64_t ret = 0;
};

/// One application delivery, in the trace clock.
struct DeliveryRec {
  EntityId at = 0;
  EntityId src = 0;
  std::uint64_t index = 0;
  std::int64_t callback = 0;
};

enum Stage : std::size_t {
  kGenLate,
  kSubmitCall,
  kRingWait,
  kQueueWait,
  kTransit,
  kPackWait,
  kAckWait,
  kCallback,
  kStageCount
};

const char* stage_name(std::size_t stage);

struct Ledger {
  std::array<double, kStageCount> mean_us{};
  std::array<double, kStageCount> p50_us{};
  std::array<double, kStageCount> p99_us{};
  double tap_mean_us = 0.0;    // over every delivery, matched or not
  double stage_sum_us = 0.0;   // sum of mean_us
  double residual_share = 0.0; // (tap_mean - stage_sum) / tap_mean
  double coverage = 0.0;       // matched deliveries / deliveries
  std::array<std::uint64_t, 2> timer_fires{};  // by proto::TimerId
  std::uint64_t wire_tx = 0;                   // kWireTx records
  std::uint64_t wire_tx_bytes = 0;
};

/// `submits[e][k]` is entity e's k-th accepted submit. With
/// `has_submit_records` false (the simulator emits no kSubmit) the ring
/// wait is zero and queue_wait starts at the submit's return.
Ledger build_ledger(const RecordSink& sink,
                    const std::vector<std::vector<SubmitTimes>>& submits,
                    const std::vector<DeliveryRec>& deliveries,
                    bool has_submit_records);

}  // namespace cobench
