// Tracer — per-thread binary trace streams with a flight-recorder core.
//
// One Tracer serves any number of writer threads: the first emit() from a
// thread registers a TraceRing stream for it (mutex-protected, once per
// thread) and caches the stream in a thread_local slot, so the steady-state
// emit is: one relaxed enabled check, one thread_local read, one 32-byte
// slot store, one release index store. No locks, no allocation.
//
// Modes (TracerConfig):
//   * flight recorder (overwrite_oldest = true, the default): rings keep
//     the newest `ring_capacity` records per thread forever; on a fuzz
//     oracle violation / harness invariant failure / fatal signal the
//     resident tail is dumped via write_snapshot()/install_crash_dump().
//   * streaming (overwrite_oldest = false, sink != nullptr): rings are
//     drained into the TraceSink at a watermark, so a full run's events
//     reach a .cotrace file; ring drops then mean "sink too slow".
//
// Quiesce contract: flush()/snapshot()/write_snapshot() read other
// threads' rings and require their writers to have quiesced (joined, or a
// happens-before edge established by the caller). Single-threaded drivers
// (the simulator, the fuzzer) satisfy this trivially. Live counter reads
// (appended/dropped) are always safe, possibly momentarily stale.
//
// Building with -DCO_TRACE_DISABLED compiles emit() to nothing (the
// null-sink-level API stays linkable, so embedders can keep call sites).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "src/co/time.h"
#include "src/common/types.h"
#include "src/obs/trace/events.h"
#include "src/obs/trace/record.h"
#include "src/obs/trace/ring.h"
#include "src/obs/trace/sink.h"

namespace co::obs::trace {

struct TracerConfig {
  /// Per-thread ring capacity in records (rounded up to a power of two).
  /// The default keeps ~16k events * 32 B = 512 KiB per writer thread.
  std::size_t ring_capacity = std::size_t{1} << 14;
  /// true: flight recorder (ring keeps the newest records, dropped() counts
  /// overwrites). false: streaming (drained into the sink at a watermark).
  bool overwrite_oldest = true;
  /// Records resident before a streaming drain; 0 = ring_capacity / 2.
  std::size_t drain_watermark = 0;
  bool start_enabled = true;
};

class Tracer {
 public:
  explicit Tracer(TracerConfig config = {}, TraceSink* sink = nullptr);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// The hot path. (origin, seq) is the subject PDU's causal identity
  /// (kNoEntity/kSeqNone when the event has no PDU subject); actor is the
  /// entity whose track this event lands on; arg is event-specific.
  void emit(EventId event, time::Tick at, EntityId actor, EntityId origin,
            std::uint64_t seq, std::uint32_t arg = 0) {
    emit(Record{at, seq, origin, actor, static_cast<std::uint16_t>(event), 0,
                arg});
  }

  /// Store a record someone else stamped (the core's EffectBatch::records);
  /// its stream field is overwritten with this thread's stream id.
  void emit(Record r) {
#ifdef CO_TRACE_DISABLED
    (void)r;
#else
    if (!enabled()) return;
    Stream& s = local_stream();
    r.stream = s.id;
    s.ring.append(r);
    if (sink_ != nullptr && !config_.overwrite_oldest &&
        s.ring.size() >= watermark_)
      drain_stream(s);
#endif
  }

  /// Live totals across all streams (relaxed; may be momentarily stale).
  std::uint64_t appended() const;
  std::uint64_t dropped() const;
  std::size_t stream_count() const;

  /// Drain every stream into the sink (no-op without one) and flush it.
  /// Requires writer threads quiesced.
  void flush();

  /// Merged flight snapshot: the resident records of every stream, sorted
  /// by timestamp (ties keep stream order — deterministic for the
  /// single-threaded drivers). Requires writer threads quiesced.
  std::vector<Record> snapshot() const;

  /// Dump the resident tail as a .cotrace stream (header + one block per
  /// stream, carrying each stream's dropped counter). Requires writer
  /// threads quiesced.
  void write_snapshot(std::ostream& os) const;
  /// write_snapshot to `path`; returns false when the file cannot be
  /// opened/written.
  bool write_snapshot_file(const std::string& path) const;

  /// Best-effort flight dump for fatal-signal handlers: raw write(2)s into
  /// an already-open descriptor, no locking, no allocation. Records still
  /// being appended may read torn; the strict reader re-validates the file
  /// before anyone trusts it. Defined in src/obs/trace/crash.cpp.
  void crash_write(int fd) const;

 private:
  struct Stream {
    Stream(std::size_t capacity, bool overwrite, std::uint16_t stream_id)
        : ring(capacity, overwrite), id(stream_id) {}
    TraceRing ring;
    std::uint16_t id;
    std::thread::id owner;
  };

  Stream& local_stream();
  Stream& register_stream();
  void drain_stream(Stream& s);

  const std::uint64_t epoch_;  // process-unique; validates tls caches
  TracerConfig config_;
  TraceSink* sink_;
  std::size_t watermark_;
  std::atomic<bool> enabled_;
  mutable std::mutex mutex_;  // guards streams_ registration + sink writes
  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<Record> scratch_;  // drain buffer (reused, mutex-guarded)
};

}  // namespace co::obs::trace
