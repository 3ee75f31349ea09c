#include "src/driver/cluster.h"

#include <deque>
#include <sstream>

#include "src/common/expect.h"
#include "src/obs/observe.h"
#include "src/obs/trace/tracer.h"

namespace co::proto {

// One simulated entity: its core's driver::Env. Env::trace does the
// cluster's bookkeeping from the step's records (send times, delivery
// expectations, oracle, span tracker) and stores them in the tracer; a user
// EffectTap saw the same records just before. The other Env hooks put
// broadcasts on the MC network and map each of the core's one-shot timers
// onto one scheduler TimerHandle slot: when a slot fires its handle is
// already spent, so the timer reads non-pending inside the handler, as
// Driver::fire requires.
class CoCluster::Entity final : public driver::Env {
 public:
  Entity(CoCluster& cluster, EntityId id)
      : core(id, cluster.options_.proto),
        driver(core, *this, cluster.scratch_, cluster.options_.effect_tap),
        cluster_(cluster),
        id_(id) {}

  // --- driver::Env ----------------------------------------------------------

  void trace(std::span<const obs::trace::Record> records) override {
    CoCluster& c = cluster_;
    for (const obs::trace::Record& r : records) {
      const PduKey key{r.origin, r.seq};
      const auto event = static_cast<obs::trace::EventId>(r.event);
      if (event == obs::trace::EventId::kSend) {
        c.sent_at_.emplace(key, r.at);
        if (r.arg != 0) {  // a data PDU
          c.data_sent_.push_back(key);
          const DstMask dst =
              pending_dst.empty() ? kEveryone : pending_dst.front();
          if (!pending_dst.empty()) pending_dst.pop_front();
          c.sent_dst_.emplace(key, dst);
          for (const auto& e : c.entities_)
            if (dst_contains(dst, e->id_)) ++e->expected_deliveries;
        }
        if (c.trace_) c.trace_->on_send(id_, key);
      } else if (event == obs::trace::EventId::kAccept && c.trace_) {
        c.trace_->on_accept(id_, key);
      }
      if (c.options_.obs) c.options_.obs->spans.on_record(r);
      if (c.options_.tracer != nullptr) c.options_.tracer->emit(r);
    }
  }

  void broadcast(Message&& msg) override {
    cluster_.network_->broadcast(id_, std::move(msg));
  }

  void deliver(const CoPdu& pdu) override {
    const sim::SimTime now = cluster_.sched_.now();
    deliveries.push_back(Delivery{pdu.key(), pdu.data, now});
    const auto it = cluster_.sent_at_.find(pdu.key());
    if (it != cluster_.sent_at_.end())
      cluster_.tap_ms_.add(sim::to_ms(now - it->second));
  }

  void arm(TimerId timer, time::Deadline deadline) override {
    timers_[static_cast<std::size_t>(timer)] =
        cluster_.sched_.schedule_at(deadline, [this, timer] {
          driver.fire(timer, cluster_.sched_.now());
        });
  }

  void cancel(TimerId timer) override {
    timers_[static_cast<std::size_t>(timer)].cancel();
  }

  BufUnits free_buffer() override {
    return cluster_.network_->free_buffer(id_);
  }

  CoCore core;
  driver::Driver driver;
  std::vector<Delivery> deliveries;
  // Data PDUs destined here so far: deliveries.size() must reach it.
  std::uint64_t expected_deliveries = 0;
  // Masks of queued-but-unsent DT requests (FIFO: the app queue is).
  std::deque<DstMask> pending_dst;

 private:
  CoCluster& cluster_;
  EntityId id_;
  sim::TimerHandle timers_[kTimerCount];
};

CoCluster::CoCluster(ClusterOptions options) : options_(std::move(options)) {
  auto& proto = options_.proto;
  proto.validate();
  options_.net.n = proto.n;
  network_ = std::make_unique<net::McNetwork<Message>>(sched_, options_.net);
  if (options_.record_trace)
    trace_ = std::make_unique<causality::TraceRecorder>(proto.n);
  for (std::size_t i = 0; i < proto.n; ++i)
    entities_.push_back(
        std::make_unique<Entity>(*this, static_cast<EntityId>(i)));
  if (options_.obs) register_observability();
  for (const auto& e : entities_) {
    Entity* entity = e.get();
    network_->attach(entity->core.self(),
                     [this, entity](EntityId from, const Message& msg) {
                       entity->driver.on_message(from, msg, sched_.now());
                     });
  }
}

CoCluster::~CoCluster() = default;

CoCluster::Entity& CoCluster::at(EntityId i) const {
  CO_EXPECT(i >= 0 && static_cast<std::size_t>(i) < entities_.size());
  return *entities_[static_cast<std::size_t>(i)];
}

CoCore& CoCluster::entity(EntityId i) { return at(i).core; }

const CoCore& CoCluster::entity(EntityId i) const { return at(i).core; }

driver::Driver& CoCluster::entity_driver(EntityId i) { return at(i).driver; }

void CoCluster::submit(EntityId i, std::vector<std::uint8_t> data,
                       proto::DstMask dst) {
  CO_EXPECT(!data.empty());
  Entity& e = at(i);
  ++submitted_;
  // The destination mask travels out-of-band to the kSend bookkeeping: each
  // entity's DT requests leave its app queue in FIFO order, so the pending
  // masks line up with its data PDUs as they hit the wire.
  e.pending_dst.push_back(dst);
  if (options_.obs) options_.obs->spans.on_submit(i, sched_.now());
  e.driver.submit(std::move(data), dst, sched_.now());
}

void CoCluster::submit_text(EntityId i, std::string_view text,
                            proto::DstMask dst) {
  submit(i, std::vector<std::uint8_t>(text.begin(), text.end()), dst);
}

bool CoCluster::all_delivered() const {
  // Every data PDU submitted must have left the app queues...
  std::uint64_t sent = 0;
  for (const auto& e : entities_) {
    if (e->core.app_queue_depth() != 0) return false;
    sent += e->core.stats().data_pdus_sent;
  }
  if (sent != submitted_) return false;
  // ...and have been delivered at every entity it was destined to.
  for (const auto& e : entities_)
    if (e->deliveries.size() != e->expected_deliveries) return false;
  return true;
}

bool CoCluster::run_until_delivered(sim::SimTime deadline) {
  // Advance one event at a time so the run stops the instant the goal is
  // reached — the confirmation chatter never self-terminates (see DESIGN.md)
  // and would otherwise run to the deadline every time.
  while (!all_delivered()) {
    if (sched_.now() > deadline || sched_.idle()) return all_delivered();
    sched_.step();
  }
  return true;
}

void CoCluster::run_for(sim::SimDuration span) {
  sched_.run_until(sched_.now() + span);
}

const std::vector<Delivery>& CoCluster::deliveries(EntityId i) const {
  return at(i).deliveries;
}

causality::DeliveryLog CoCluster::delivered_keys(EntityId i) const {
  causality::DeliveryLog log;
  for (const auto& d : deliveries(i)) log.push_back(d.key);
  return log;
}

std::vector<causality::DeliveryLog> CoCluster::all_delivered_keys() const {
  std::vector<causality::DeliveryLog> logs;
  logs.reserve(entities_.size());
  for (std::size_t i = 0; i < entities_.size(); ++i)
    logs.push_back(delivered_keys(static_cast<EntityId>(i)));
  return logs;
}

std::optional<causality::Violation> CoCluster::check_co_service() const {
  CO_EXPECT_MSG(trace_, "cluster built with record_trace = false");
  // With selective destinations, each entity is only owed the PDUs it is a
  // destination of; build the per-entity expected set.
  const auto logs = all_delivered_keys();
  for (std::size_t e = 0; e < logs.size(); ++e) {
    const auto id = static_cast<EntityId>(e);
    std::vector<PduKey> expected;
    for (const auto& key : data_sent_) {
      const auto it = sent_dst_.find(key);
      const DstMask dst = it == sent_dst_.end() ? kEveryone : it->second;
      if (dst_contains(dst, id)) expected.push_back(key);
    }
    if (auto v = causality::check_information_preserved(id, logs[e], expected))
      return v;
    if (auto v = causality::check_local_order_preserved(id, logs[e])) return v;
    if (auto v = causality::check_causality_preserved(id, logs[e], *trace_))
      return v;
  }
  return std::nullopt;
}

void CoCluster::register_observability() {
  obs::MetricsRegistry& reg = options_.obs->registry;
  const std::size_t n = options_.proto.n;
  // Every instrument below is a callback over state the protocol already
  // maintains — sampled only at snapshot() time, so attaching the bundle
  // adds no hot-path work and no scheduler events. Entity counters go
  // through CoEntityStats::snapshot(): the instruments never hold
  // references into the live, mutating counters.
  using SnapField = std::uint64_t CoEntityStats::Snapshot::*;
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<EntityId>(i);
    const obs::Labels ent = {{"entity", "E" + std::to_string(i)}};
    const CoCore* e = &entities_[i]->core;
    auto add_kind = [&](const char* kind, SnapField field, const char* help) {
      obs::Labels labels = ent;
      labels.emplace_back("kind", kind);
      reg.counter_fn("co_pdus_sent_total", std::move(labels),
                     [e, field] {
                       return static_cast<double>(e->stats().snapshot().*field);
                     },
                     help);
    };
    add_kind("data", &CoEntityStats::Snapshot::data_pdus_sent,
             "PDUs broadcast, by kind");
    add_kind("ctrl", &CoEntityStats::Snapshot::ctrl_pdus_sent, "");
    add_kind("ret", &CoEntityStats::Snapshot::ret_pdus_sent, "");
    add_kind("rtx", &CoEntityStats::Snapshot::retransmissions_sent, "");
    auto add_counter = [&](const char* name, SnapField field,
                           const char* help) {
      reg.counter_fn(name, ent,
                     [e, field] {
                       return static_cast<double>(e->stats().snapshot().*field);
                     },
                     help);
    };
    add_counter("co_pdus_accepted_total",
                &CoEntityStats::Snapshot::pdus_accepted,
                "PDUs that passed the acceptance action");
    add_counter("co_pdus_parked_total",
                &CoEntityStats::Snapshot::parked_out_of_order,
                "Out-of-order PDUs parked behind a gap");
    add_counter("co_pre_acknowledged_total",
                &CoEntityStats::Snapshot::pre_acknowledged,
                "PDUs moved into the PRL (PACK action)");
    add_counter("co_acknowledged_total", &CoEntityStats::Snapshot::acknowledged,
                "PDUs acknowledged (ACK action)");
    add_counter("co_delivered_total", &CoEntityStats::Snapshot::delivered_to_app,
                "Data PDUs handed to the application");
    add_counter("co_f1_detections_total",
                &CoEntityStats::Snapshot::f1_detections,
                "Failure condition (1) firings");
    add_counter("co_f2_detections_total",
                &CoEntityStats::Snapshot::f2_detections,
                "Failure condition (2) firings");
    add_counter("co_flow_blocked_total", &CoEntityStats::Snapshot::flow_blocked,
                "DT requests held back by the flow condition");
    reg.gauge_fn("co_undelivered_buffered", ent,
                 [e] { return static_cast<double>(e->undelivered_buffered()); },
                 "Accepted-but-undelivered PDUs buffered (RRL + PRL)");
    reg.gauge_fn("co_prl_size", ent,
                 [e] { return static_cast<double>(e->prl_size()); },
                 "Pre-acknowledged PDUs awaiting the ACK condition");
    reg.gauge_fn("co_sent_log_size", ent,
                 [e] { return static_cast<double>(e->sent_log_size()); },
                 "Own PDUs retained for selective retransmission");
    reg.gauge_fn("co_app_queue_depth", ent,
                 [e] { return static_cast<double>(e->app_queue_depth()); },
                 "DT requests queued behind the flow condition");
    reg.gauge_fn("co_net_ingress_queue_depth", ent,
                 [this, id] {
                   return static_cast<double>(
                       network_->ingress_queue_depth(id));
                 },
                 "PDUs in the MC ingress buffer right now");
  }
  const net::NetworkStats* ns = &network_->stats();
  reg.counter_fn("co_net_pdus_sent_total", {},
                 [ns] { return static_cast<double>(ns->pdus_sent); },
                 "Per-destination PDU copies put on the wire");
  reg.counter_fn("co_net_pdus_delivered_total", {},
                 [ns] { return static_cast<double>(ns->pdus_delivered); },
                 "PDU copies handed to entities");
  reg.counter_fn("co_net_dropped_total", {{"reason", "overrun"}},
                 [ns] { return static_cast<double>(ns->dropped_overrun); },
                 "PDU copies lost, by failure mode");
  reg.counter_fn("co_net_dropped_total", {{"reason", "injected"}},
                 [ns] { return static_cast<double>(ns->dropped_injected); });
  reg.counter_fn("co_net_dropped_total", {{"reason", "fault"}},
                 [ns] { return static_cast<double>(ns->dropped_fault); });
  reg.gauge_fn("co_net_max_queue_depth", {},
               [ns] { return static_cast<double>(ns->max_queue_depth); },
               "Worst ingress-buffer occupancy seen");
  reg.gauge_fn("co_sim_pending_events", {},
               [this] { return static_cast<double>(sched_.pending_events()); },
               "Events in the scheduler queue right now");
  reg.counter_fn("co_sim_executed_events_total", {},
                 [this] {
                   return static_cast<double>(sched_.executed_events());
                 },
                 "Events the scheduler has executed");
  reg.counter_fn("co_sim_scheduled_events_total", {},
                 [this] {
                   return static_cast<double>(sched_.scheduled_events());
                 },
                 "Events (incl. timers) ever armed");
}

std::string CoCluster::dump_entity_stats() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < entities_.size(); ++i) {
    if (i) os << '\n';
    os << 'E' << i << ' ' << entities_[i]->core.stats();
  }
  return os.str();
}

CoEntityStats CoCluster::aggregate_stats() const {
  CoEntityStats agg;
  for (const auto& e : entities_) agg += e->core.stats().snapshot();
  return agg;
}

}  // namespace co::proto
