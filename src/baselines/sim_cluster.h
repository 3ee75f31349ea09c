// One simulated cluster for every baseline protocol, mirroring
// proto::CoCluster so tests and benches can swap protocols symmetrically.
//
// SimCluster owns the scheduler, the network, one entity per id, the
// per-entity delivery logs, the original-send keys and the happened-before
// oracle. An Entity plugs in by providing `Message`, `Hooks`
// (EntityHooks), a constructor `(EntityId, n, Hooks, extra...)`,
// `broadcast(data)`, `on_message(from, msg)`, `next_seq()` and `stats()`.
#pragma once

#include <memory>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/baselines/cbcast.h"
#include "src/baselines/po_protocol.h"
#include "src/baselines/to_protocol.h"
#include "src/causality/checkers.h"
#include "src/causality/trace.h"
#include "src/net/mc_network.h"
#include "src/net/one_channel.h"
#include "src/sim/scheduler.h"

namespace co::baselines {

template <class Entity, template <class> class Network>
class SimCluster {
 public:
  using Message = typename Entity::Message;
  using Net = Network<Message>;

  /// `entity_args` are passed to every entity after its hooks (the TO and
  /// PO NAK timeout).
  template <class... EntityArgs>
  SimCluster(std::size_t n, typename Net::Config net_config,
             EntityArgs... entity_args)
      : logs_(n), trace_(n) {
    net_config.n = n;
    network_ = std::make_unique<Net>(sched_, net_config);
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<EntityId>(i);
      typename Entity::Hooks hooks{
          [this, id](Message m) { network_->broadcast(id, std::move(m)); },
          [this, id](const auto& delivered) {
            logs_[static_cast<std::size_t>(id)].push_back(delivered.key());
            trace_.on_accept(id, delivered.key());
          },
          [this](sim::SimDuration d, std::function<void()> fn) {
            sched_.schedule_after(d, std::move(fn));
          }};
      entities_.push_back(
          std::make_unique<Entity>(id, n, std::move(hooks), entity_args...));
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<EntityId>(i);
      network_->attach(id, [this, id](EntityId from, const Message& m) {
        entities_[static_cast<std::size_t>(id)]->on_message(from, m);
      });
    }
  }

  void broadcast(EntityId i, std::vector<std::uint8_t> data) {
    Entity& e = entity(i);
    // Record the send in the oracle before the entity (CBCAST) self-delivers.
    const causality::PduKey key{i, e.next_seq()};
    trace_.on_send(i, key);
    sent_.push_back(key);
    e.broadcast(std::move(data));
  }
  void broadcast_text(EntityId i, std::string_view text) {
    broadcast(i, std::vector<std::uint8_t>(text.begin(), text.end()));
  }

  sim::Scheduler& scheduler() { return sched_; }
  Net& network() { return *network_; }
  Entity& entity(EntityId i) { return *entities_[static_cast<std::size_t>(i)]; }
  const causality::TraceRecorder& oracle() const { return trace_; }
  const causality::DeliveryLog& log(EntityId i) const {
    return logs_[static_cast<std::size_t>(i)];
  }
  std::vector<causality::DeliveryLog> logs() const { return logs_; }
  const std::vector<causality::PduKey>& sent() const { return sent_; }

  /// Sum of every entity's stats (the stats type must define +=).
  auto aggregate_stats() const {
    std::decay_t<decltype(entities_.front()->stats())> agg;
    for (const auto& e : entities_) agg += e->stats();
    return agg;
  }

  bool all_delivered() const {
    for (const auto& l : logs_)
      if (l.size() != sent_.size()) return false;
    return true;
  }

  /// Run until everything is delivered everywhere or the event queue drains
  /// (CBCAST has no timers: on a lossy network it simply stalls — E7b).
  bool run(sim::SimTime deadline) {
    while (!all_delivered() && !sched_.idle() && sched_.now() <= deadline)
      sched_.step();
    return all_delivered();
  }

 private:
  sim::Scheduler sched_;
  std::unique_ptr<Net> network_;
  std::vector<std::unique_ptr<Entity>> entities_;
  std::vector<causality::DeliveryLog> logs_;
  std::vector<causality::PduKey> sent_;
  causality::TraceRecorder trace_;
};

/// ISIS CBCAST over a (normally reliable) MC network.
using CbcastCluster = SimCluster<CbcastEntity, net::McNetwork>;
/// TO protocol over the one-channel (Ethernet-like) network.
using ToCluster = SimCluster<ToEntity, net::OneChannelNetwork>;
/// PO protocol (LO service) over the MC network.
using PoCluster = SimCluster<PoEntity, net::McNetwork>;

}  // namespace co::baselines
