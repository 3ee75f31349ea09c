// DigestSink — an order-sensitive digest over a binary trace record stream.
//
// Folds every field of every record except `stream` (a writer-thread id,
// not part of the execution) into an FNV-1a hash, in the order the records
// were drained. For a single-writer driver such as the simulator that is
// emission order, so two runs are event-for-event identical iff their
// digests and record counts match. The fuzzer stamps this digest into
// every counterexample artifact; `co_fuzz --replay` recomputes it.
//
// The sink also keeps the newest `tail_capacity` records in a
// flight-recorder ring (overwrite-oldest), so a driver that streams into it
// still has the resident tail to dump when an oracle fires.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/obs/trace/ring.h"
#include "src/obs/trace/sink.h"

namespace co::obs::trace {

class DigestSink final : public TraceSink {
 public:
  explicit DigestSink(std::size_t tail_capacity = 2)
      : tail_(tail_capacity, /*overwrite_oldest=*/true) {}

  void on_records(std::uint16_t, const Record* records, std::size_t count,
                  std::uint64_t) override {
    for (std::size_t i = 0; i < count; ++i) {
      const Record& r = records[i];
      fold(static_cast<std::uint64_t>(r.at));
      fold(r.seq);
      fold(static_cast<std::uint64_t>(r.origin));
      fold(static_cast<std::uint64_t>(r.actor));
      fold(r.event);
      fold(r.arg);
      tail_.append(r);
    }
    records_ += count;
  }

  std::uint64_t digest() const { return digest_; }
  /// Records folded so far.
  std::uint64_t records() const { return records_; }

  /// The newest records, oldest first, and how many older ones the tail
  /// ring has overwritten.
  std::vector<Record> tail() const {
    std::vector<Record> out;
    tail_.copy_out(out);
    return out;
  }
  std::uint64_t tail_dropped() const { return tail_.dropped(); }

 private:
  void fold(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest_ ^= (v >> (8 * i)) & 0xff;
      digest_ *= 0x100000001b3ull;  // FNV prime
    }
  }

  std::uint64_t digest_ = 0xcbf29ce484222325ull;  // FNV offset basis
  std::uint64_t records_ = 0;
  TraceRing tail_;
};

}  // namespace co::obs::trace
