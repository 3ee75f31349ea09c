// Experiment harness: one-call runs of a configured cluster + workload,
// returning the metrics the paper's evaluation (and our extended benches)
// report. Every bench binary is a thin sweep over these functions.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "src/app/workload.h"
#include "src/co/config.h"
#include "src/common/types.h"
#include "src/net/delay.h"
#include "src/obs/observe.h"
#include "src/sim/time.h"

namespace co::obs::trace {
class Tracer;
}  // namespace co::obs::trace

namespace co::harness {

struct ExperimentConfig {
  // Cluster.
  std::size_t n = 4;
  SeqNo window = 8;
  sim::SimDuration link_delay = 100 * sim::kMicrosecond;
  BufUnits buffer_capacity = 4096;
  sim::SimDuration service_time = 20 * sim::kMicrosecond;
  double injected_loss = 0.0;
  std::uint64_t seed = 1994;
  // Protocol timers.
  sim::SimDuration defer_timeout = 500 * sim::kMicrosecond;
  sim::SimDuration retransmit_timeout = 2 * sim::kMillisecond;
  bool deferred_confirmation = true;
  // Workload.
  app::WorkloadConfig workload;
  // Run control.
  sim::SimTime deadline = 600'000 * sim::kMillisecond;
  /// Record the happened-before oracle and check the CO service at the end.
  /// Costs O(n) per event — leave off in timing-sensitive benches.
  bool check_correctness = false;
  // Observability (CO runs only; baselines ignore these).
  /// Optional introspection bundle (not owned; must be built for this n).
  /// When set, the result carries a final metrics snapshot.
  obs::Observability* obs = nullptr;
  /// With obs attached, > 0 pumps a JSONL snapshot line to
  /// `metrics_snapshot_sink` every this many sim-ns (a time series).
  sim::SimDuration metrics_snapshot_every = 0;
  std::ostream* metrics_snapshot_sink = nullptr;
  /// Optional binary event tracer (not owned; CO runs only): every protocol
  /// milestone becomes a 32-byte record (src/obs/trace). Null = off.
  obs::trace::Tracer* tracer = nullptr;
};

struct ExperimentResult {
  bool completed = false;          // everything delivered before deadline
  std::optional<std::string> violation;  // CO-service check (if enabled)

  double sim_ms = 0.0;             // simulated time to full delivery
  // Fig. 8 metrics.
  double tco_us = 0.0;             // wall-clock protocol processing per PDU
  double tap_ms = 0.0;             // mean app-to-app transmission delay (sim)
  // E2 metrics.
  double accept_to_pack_ms = 0.0;
  double accept_to_ack_ms = 0.0;
  // Traffic.
  std::uint64_t data_pdus = 0;
  std::uint64_t ctrl_pdus = 0;
  std::uint64_t ret_pdus = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t wire_pdus = 0;      // per-destination copies on the wire
  std::uint64_t dropped_overrun = 0;
  std::uint64_t dropped_injected = 0;
  // E3 metrics.
  std::size_t max_buffered = 0;     // max RRL+PRL occupancy at any entity
  std::size_t max_sent_log = 0;
  // Derived.
  double ctrl_per_data = 0.0;
  double delivered_msgs_per_sim_s = 0.0;
  // Final metrics snapshot (set when ExperimentConfig::obs was attached).
  std::optional<obs::MetricsSnapshot> metrics;
};

/// Run the CO protocol (paper's system) under the given configuration.
ExperimentResult run_co_experiment(const ExperimentConfig& config);

/// Run the TO baseline (one-channel + go-back-n) under an equivalent
/// configuration. Fields that do not apply (PACK/ACK latencies, ctrl PDUs)
/// are zero.
ExperimentResult run_to_experiment(const ExperimentConfig& config);

/// Run the PO baseline (LO service, selective retransmission, immediate
/// delivery) under an equivalent configuration.
ExperimentResult run_po_experiment(const ExperimentConfig& config);

}  // namespace co::harness
