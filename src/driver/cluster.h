// CoCluster — a complete simulated cluster C = <E_1..E_n> running the CO
// protocol over the MC network, with the causality oracle attached.
//
// This is the top-level convenience used by tests, examples and benches:
// it owns the scheduler, the network, the n sans-io cores and the
// driver::Driver that animates each of them, per-entity delivery logs, and
// the happened-before trace. Each entity is one cluster-side adapter, its
// driver's Env: timers become scheduler events, broadcasts go to the MC
// network, and the core's trace records drive the cluster's bookkeeping.
// A user observes every entity's effects and records through
// ClusterOptions::effect_tap (or ClusterBuilder::effect_tap).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/causality/checkers.h"
#include "src/causality/trace.h"
#include "src/co/config.h"
#include "src/co/core.h"
#include "src/common/stats.h"
#include "src/driver/driver.h"
#include "src/net/mc_network.h"
#include "src/sim/scheduler.h"

namespace co::obs {
struct Observability;
}  // namespace co::obs

namespace co::obs::trace {
class Tracer;
}  // namespace co::obs::trace

namespace co::proto {

struct ClusterOptions {
  CoConfig proto;      // proto.n is authoritative for the cluster size
  net::McConfig net;   // net.n is overwritten with proto.n
  bool record_trace = true;
  /// Optional observability bundle (not owned; must be built for this n).
  /// When set, the cluster feeds the span tracker the entities' trace
  /// records and registers entity/network/scheduler instruments with the
  /// registry. Null = introspection off (one skipped branch per record).
  obs::Observability* obs = nullptr;
  /// Optional tap (not owned): sees every entity's step output — effects
  /// and trace records — before the driver replays it and before the
  /// cluster's own bookkeeping (src/driver/effect_tap.h). The fuzz driver
  /// records and digests the effect stream this way. Null = off.
  driver::EffectTap* effect_tap = nullptr;
  /// Optional binary event tracer (not owned): stores every entity's
  /// protocol records, stamped with scheduler time (src/obs/trace).
  /// Null = off (one skipped branch per record).
  obs::trace::Tracer* tracer = nullptr;
};

/// One PDU as delivered to an application entity.
struct Delivery {
  PduKey key;
  std::vector<std::uint8_t> data;
  sim::SimTime at = 0;
};

class CoCluster {
 public:
  explicit CoCluster(ClusterOptions options);
  ~CoCluster();

  std::size_t size() const { return options_.proto.n; }
  sim::Scheduler& scheduler() { return sched_; }
  net::McNetwork<Message>& network() { return *network_; }
  CoCore& entity(EntityId i);
  const CoCore& entity(EntityId i) const;
  /// The driver animating entity `i` — the injection point for tests that
  /// feed a message straight to one entity, bypassing the network.
  driver::Driver& entity_driver(EntityId i);
  const causality::TraceRecorder& oracle() const { return *trace_; }

  /// Application DT request at entity `i`, destined to `dst` (default: the
  /// whole cluster, the paper's §4 case).
  void submit(EntityId i, std::vector<std::uint8_t> data,
              proto::DstMask dst = proto::kEveryone);
  void submit_text(EntityId i, std::string_view text,
                   proto::DstMask dst = proto::kEveryone);

  /// Keys of every DATA PDU broadcast so far (the set each entity must
  /// eventually deliver).
  const std::vector<PduKey>& data_sent() const { return data_sent_; }

  std::uint64_t submitted() const { return submitted_; }

  /// True when every entity delivered every data PDU submitted so far and
  /// no entity still has queued app data.
  bool all_delivered() const;

  /// Run the simulation until all_delivered() or `deadline` (absolute sim
  /// time). Returns true on success. The protocol's confirmation chatter
  /// never self-terminates (by design — see DESIGN.md), so callers always
  /// bound runs this way.
  bool run_until_delivered(sim::SimTime deadline);

  /// Run for a fixed span of simulated time.
  void run_for(sim::SimDuration span);

  const std::vector<Delivery>& deliveries(EntityId i) const;
  /// Delivery log as bare keys (for the §2.2 checkers).
  causality::DeliveryLog delivered_keys(EntityId i) const;
  std::vector<causality::DeliveryLog> all_delivered_keys() const;

  /// Check the CO service (information- + causality-preservation at every
  /// entity) against the oracle. Returns the first violation, if any.
  std::optional<causality::Violation> check_co_service() const;

  /// Application-to-application transmission delay (Tap): broadcast of a
  /// data PDU -> delivery at each destination, in simulated milliseconds.
  const OnlineStats& tap_ms() const { return tap_ms_; }

  /// Sum of the per-entity protocol stats (snapshot-based; stable).
  CoEntityStats aggregate_stats() const;

  /// One line per entity ("E0 {data_sent=..}"), for failure messages.
  std::string dump_entity_stats() const;

 private:
  /// One simulated entity: its core, its driver, and the driver's Env
  /// (record bookkeeping — send times, oracle, span tracker, tracer — the
  /// network, the delivery log and scheduler-backed timers).
  class Entity;
  Entity& at(EntityId i) const;

  /// Register callback instruments for every entity, the network and the
  /// scheduler with options_.obs->registry (ctor tail, obs attached only).
  /// Entity instruments sample CoEntityStats::snapshot(), never the live
  /// counters.
  void register_observability();
  ClusterOptions options_;
  sim::Scheduler sched_;
  std::unique_ptr<net::McNetwork<Message>> network_;
  std::unique_ptr<causality::TraceRecorder> trace_;
  // Step scratch every entity's driver shares (the scheduler steps one
  // entity at a time); declared before the entities that borrow it.
  EffectBatch scratch_;
  std::vector<std::unique_ptr<Entity>> entities_;
  std::vector<PduKey> data_sent_;
  std::unordered_map<PduKey, sim::SimTime, causality::PduKeyHash> sent_at_;
  // Destination set per data PDU.
  std::unordered_map<PduKey, DstMask, causality::PduKeyHash> sent_dst_;
  std::uint64_t submitted_ = 0;
  OnlineStats tap_ms_;
};

/// Fluent construction for CoCluster:
///
///   auto cluster = ClusterBuilder(8)
///                      .window(4)
///                      .tracer(&tracer)
///                      .effect_tap(&tap)
///                      .build();
///
/// The builder only assembles ClusterOptions — build() delegates to the
/// CoCluster(ClusterOptions) constructor, which remains the primary API.
/// The cluster size given at construction is authoritative: config()
/// overwrites every other protocol tunable but keeps n.
class ClusterBuilder {
 public:
  explicit ClusterBuilder(std::size_t n) { options_.proto.n = n; }

  /// Replace the whole protocol config (n is preserved from the builder).
  ClusterBuilder& config(const CoConfig& proto) {
    const std::size_t n = options_.proto.n;
    options_.proto = proto;
    options_.proto.n = n;
    return *this;
  }
  ClusterBuilder& window(SeqNo w) {
    options_.proto.window = w;
    return *this;
  }
  ClusterBuilder& net(const net::McConfig& net_config) {
    options_.net = net_config;
    return *this;
  }
  ClusterBuilder& record_trace(bool on) {
    options_.record_trace = on;
    return *this;
  }
  ClusterBuilder& effect_tap(driver::EffectTap* tap) {
    options_.effect_tap = tap;
    return *this;
  }
  ClusterBuilder& tracer(obs::trace::Tracer* tracer) {
    options_.tracer = tracer;
    return *this;
  }

  const ClusterOptions& options() const { return options_; }

  /// Validate the assembled options and construct the cluster. Returns a
  /// unique_ptr because CoCluster pins its address (every entity's
  /// adapter points back into it).
  std::unique_ptr<CoCluster> build() const {
    options_.proto.validate();
    return std::make_unique<CoCluster>(options_);
  }

 private:
  ClusterOptions options_;
};

}  // namespace co::proto
