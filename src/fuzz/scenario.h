// Fuzz scenarios: one fully-specified, deterministic simulation run.
//
// A Scenario is plain data — cluster shape, protocol tunables, network
// adversity, a submit schedule, and a fault schedule (net/fault.h). The
// same Scenario always produces the same execution bit-for-bit (the
// deterministic sim::Scheduler and seeded RNG streams guarantee it), which
// is what makes generation, shrinking and replay compose: the generator
// derives a Scenario from a single seed, the shrinker edits the data, and
// the replay CLI loads it back from JSON.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/co/config.h"
#include "src/common/json.h"
#include "src/net/fault.h"
#include "src/net/mc_network.h"
#include "src/sim/time.h"

namespace co::fuzz {

/// One application DT request: at sim time `at`, entity `entity` submits a
/// payload of `payload_bytes` deterministic bytes.
struct SubmitOp {
  sim::SimTime at = 0;
  EntityId entity = 0;
  std::uint32_t payload_bytes = 1;
};

/// Which delay topology the scenario uses.
enum class DelayKind {
  kFixed,      // every channel delay_lo
  kUniform,    // per-PDU uniform in [delay_lo, delay_hi]
  kStraggler,  // fixed delay_lo, but entity n-1 is straggler_factor slower
};

struct Scenario {
  std::uint64_t seed = 0;  // generator seed (identity; not re-consumed)

  // Cluster / protocol (co::proto::CoConfig).
  std::size_t n = 3;
  SeqNo window = 4;
  sim::SimDuration defer_timeout = 500 * sim::kMicrosecond;
  sim::SimDuration retransmit_timeout = 2 * sim::kMillisecond;
  bool confirm_on_heard_all = true;
  bool deferred_confirmation = true;

  // Network (net::McConfig).
  DelayKind delay_kind = DelayKind::kFixed;
  sim::SimDuration delay_lo = 100 * sim::kMicrosecond;
  sim::SimDuration delay_hi = 100 * sim::kMicrosecond;
  std::uint32_t straggler_factor = 1;
  BufUnits buffer_capacity = 1u << 16;
  BufUnits assumed_peer_buffer = 1u << 16;
  sim::SimDuration service_time = 0;
  double injected_loss = 0.0;
  double injected_duplicates = 0.0;

  // Workload + adversity.
  std::vector<SubmitOp> submits;
  net::FaultSchedule faults;

  /// Liveness horizon: every submitted PDU must be delivered everywhere by
  /// this absolute sim time, or the run is a liveness violation.
  sim::SimTime horizon = 60 * sim::kSecond;

  /// Derive a randomized adversarial scenario from a single seed. The
  /// schedule aims fault episodes at the paper's two failure conditions:
  /// channel loss bursts manufacture the sequence gaps F(1)/F(2) detect,
  /// and buffer squeezes force the ingress-overrun loss the MC service
  /// model names as the dominant failure.
  static Scenario generate(std::uint64_t seed);

  Json to_json() const;
  static Scenario from_json(const Json& j);

  /// Materialize the protocol and network configs this scenario encodes.
  proto::CoConfig proto_config() const;
  net::McConfig net_config() const;

  /// One-line human summary (for fuzzer progress / failure output).
  std::string summary() const;
};

}  // namespace co::fuzz
