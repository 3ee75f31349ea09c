// cobench — the repository benchmark (see cobench/README.md).
//
// Two workloads drive the CO service from outside, through its public
// API only: `steady` (open loop over a loopback host::Host) and
// `sim_lossy` (the deterministic simulator through proto::ClusterBuilder).
// Every run checks delivery correctness and publishes nothing when a check
// fails. A traced run
// (--trace 1) re-runs the workload with an obs::trace::Tracer attached and
// turns the records into per-layer metrics and a stage ledger.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace cobench {

using co::EntityId;

/// One named figure of the final report line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run publishes. `correct` false means a correctness check
/// failed; main() then exits non-zero and prints no result line.
struct Report {
  bool correct = true;
  std::string failure;  // first failed check, for the error message
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines printed first

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) {
    if (correct) failure = std::move(why);
    correct = false;
  }
};

// --- payload header ----------------------------------------------------------

/// The measurement data every submitted payload carries. `due_ns` is when
/// the submit was due; `call_ns` is when the generator called submit. Both
/// are in the clock of the workload (Host::epoch()-relative ns on the wire,
/// simulated ns in the simulator).
struct Header {
  std::int64_t due_ns = 0;
  std::int64_t call_ns = 0;
  std::int32_t src = 0;
  std::uint64_t index = 0;  // per-source accepted-submit counter
};
inline constexpr std::size_t kHeaderBytes = 28;

inline void pack_header(const Header& h, std::uint8_t* out) {
  std::memcpy(out, &h.due_ns, 8);
  std::memcpy(out + 8, &h.call_ns, 8);
  std::memcpy(out + 16, &h.src, 4);
  std::memcpy(out + 20, &h.index, 8);
}

inline std::optional<Header> unpack_header(const std::uint8_t* data,
                                           std::size_t size) {
  if (size < kHeaderBytes) return std::nullopt;
  Header h;
  std::memcpy(&h.due_ns, data, 8);
  std::memcpy(&h.call_ns, data + 8, 8);
  std::memcpy(&h.src, data + 16, 4);
  std::memcpy(&h.index, data + 20, 8);
  return h;
}

// --- delivery checker --------------------------------------------------------

/// Per-receiver, per-source FIFO and completeness check. Every receiver
/// must deliver each source's submits in submit order with no gap or
/// duplicate, and, once the run drains, all of them. on_delivery() for
/// receiver `at` must only ever be called from one thread at a time (the
/// host's shard thread owning `at`); verify() after those threads joined.
class DeliveryChecker {
 public:
  explicit DeliveryChecker(std::size_t n);

  void on_delivery(EntityId at, EntityId src, std::uint64_t index);

  /// First violation, if any: a FIFO break seen during the run, or a
  /// receiver that is missing some of the `accepted[src]` submits of a
  /// source.
  std::optional<std::string> verify(
      const std::vector<std::uint64_t>& accepted) const;

 private:
  struct alignas(64) Receiver {
    std::vector<std::uint64_t> next;  // per source: next expected index
    std::optional<std::string> first_violation;
  };
  std::vector<Receiver> receivers_;
};

// --- small statistics --------------------------------------------------------

/// Quantile q in [0,1] with linear interpolation between ranks; 0 for an
/// empty sample. Reorders `v`.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

// --- process and machine -----------------------------------------------------

double process_cpu_s();  // CLOCK_PROCESS_CPUTIME_ID
double thread_cpu_s();   // CLOCK_THREAD_CPUTIME_ID of the caller

/// CPU seconds the calling thread spends on a fixed reference loop: 20000
/// hash-table inserts into freshly allocated vectors, the same kind of
/// allocation- and pointer-heavy work the simulator does. See
/// kReferenceNominalS.
double reference_cpu_s();

/// The reference loop's usual time on the machine the benchmark was built
/// on (4-vCPU Xeon VM, Release). The shared machine runs the simulator and
/// the reference loop faster or slower together, by up to 2x within
/// minutes, so calibrated() scales a time measured beside reference time
/// `ref_s` to that machine: the simulator's cost then repeats across the
/// machine's phases where the raw cost does not.
inline constexpr double kReferenceNominalS = 3.0e-3;
inline double calibrated(double seconds, double ref_s) {
  return ref_s > 0 ? seconds * kReferenceNominalS / ref_s : 0.0;
}

/// Peak resident set (VmHWM) since the last reset_peak_rss(), which
/// writes 5 to /proc/self/clear_refs.
double peak_rss_mb();
void reset_peak_rss();

/// user+sys ticks of every thread of this process except the caller, read
/// from /proc/self/task (the host's shard threads, while they run).
struct ThreadTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};
ThreadTimes other_threads_cpu();

/// nproc, CPU model, kernel backend, build type, for the report notes.
std::vector<std::string> machine_notes();

// --- workloads ---------------------------------------------------------------

/// `steady`: open loop over a loopback host.
struct WireConfig {
  std::size_t entities = 8;
  std::size_t shards = 2;
  double rate = 10000.0;        // submits/s over all entities
  std::size_t payload = 64;
  double warmup_s = 0.2;
  double seconds = 30.0;        // measured load, split over fresh hosts
  double host_s = 1.5;          // measured window of each host
  double trace_seconds = 0.5;   // traced window of a --trace 1 run
  int setup_repeats = 101;      // build+start cycles timed for setup_s
  double drain_s = 10.0;        // drain deadline after the window
};

/// n=32 simulated cluster with injected loss.
struct SimConfig {
  std::size_t n = 32;
  co::SeqNo window = 8;
  double link_delay_us = 100.0;
  double loss = 0.01;
  double round_us = 200.0;   // every entity submits once per round
  std::size_t rounds = 200;
  std::size_t verify_rounds = 32;  // prefix checked by check_co_service()
  double slice_us = 4000.0;  // simulated time between reference passes
  std::size_t payload = 64;
  double seconds = 30.0;     // timed executions run until this elapses
  int setup_repeats = 101;   // cluster builds timed for setup_s
};

Report run_wire(const WireConfig& config, std::uint64_t seed, bool trace);
Report run_sim(const SimConfig& config, std::uint64_t seed, bool trace);

}  // namespace cobench
