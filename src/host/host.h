// Host — a sharded realtime process running many CO entities over real UDP.
//
// The one way to run CO entities over real UDP, and the realtime
// counterpart of the simulator's CoCluster: one Host owns N shard threads
// (src/host/shard.h), each driving a slice of the host's local entities
// with batched socket I/O, while application threads talk to the shards
// exclusively through lock-free SPSC rings. Entities not hosted here are
// *peers* — remote processes addressed through the shared endpoint table.
// A single-node deployment is a one-entity host: entity(self, ep) plus a
// peer() for every other member.
//
// Construction is the fluent HostBuilder (mirroring driver::ClusterBuilder)
// with an explicit lifecycle:
//
//   configured --build()--> bound --start()--> running --stop()--> stopped
//
//   * configured: the builder accumulates entities/peers/options; nothing
//     has touched the network.
//   * bound: build() validated the config and bound every local entity's
//     socket (ephemeral ports resolved, readable via endpoint()); remote
//     peer endpoints may still be filled in via set_peer().
//   * running: start() froze the peer table and spawned the shard threads;
//     set_peer() now throws instead of racing the shards.
//   * stopped: stop() joined the threads; stats are safe to read.
//
// Threading contract:
//   * submit(id, ...) — at most ONE producer thread per entity at a time
//     (the SPSC ring's contract); different entities may be fed from
//     different threads concurrently.
//   * the deliver callback runs on the shard thread owning the delivering
//     entity, and so does the effect tap for that entity's steps (one tap
//     serves every entity, so it is called from every shard thread).
//   * wire_stats()/protocol_stats() are stable after stop(); while running
//     they are best-effort (counters mutate on shard threads).
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/host/shard.h"

namespace co::host {

class HostBuilder;

class Host {
 public:
  enum class State : std::uint8_t { kBound, kRunning, kStopped };

  ~Host();  // stops and joins if still running

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  State state() const { return state_.load(std::memory_order_acquire); }
  std::size_t n() const { return peers_.size(); }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t local_entity_count() const { return locals_; }
  bool is_local(EntityId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < by_entity_.size() &&
           by_entity_[static_cast<std::size_t>(id)] != nullptr;
  }

  /// The endpoint table entry for `id` — for local entities this is the
  /// bound (ephemeral-resolved) address peers should send to.
  transport::UdpEndpoint endpoint(EntityId id) const;

  /// Fill in a remote peer's endpoint. Only legal while bound: once the
  /// host is running the table is owned by the shard threads, and mutating
  /// it would be a data race — that mistake now throws std::logic_error.
  void set_peer(EntityId id, transport::UdpEndpoint ep);

  /// bound -> running: freeze the peer table (every entry must have a
  /// port by now) and spawn one thread per shard.
  void start();

  /// running -> stopped: ask the shards to wind down (waking any that are
  /// asleep in poll) and join them. Each shard runs one final submission
  /// drain on its way out, so a submit that returned kAccepted is never
  /// silently dropped in a ring — it entered the protocol or the caller
  /// was told kQueueFull/kStopped. Idempotent; the destructor calls it.
  void stop();

  /// Submission ring for entity `id` (must be local). One producer thread
  /// per entity; see the class comment. Legal in bound state too — queued
  /// work drains when the shards start.
  SubmitResult submit(EntityId id, std::vector<std::uint8_t> data,
                      proto::DstMask dst = proto::kEveryone);

  /// True when every shard reported all its entities quiescent at the end
  /// of its latest loop iteration (relaxed hint, exact once stopped).
  bool quiescent() const;

  /// Spin (with a small sleep) until quiescent() or `limit` elapsed.
  bool await_quiescent(std::chrono::milliseconds limit) const;

  Shard& shard(std::size_t i) { return *shards_[i]; }
  const Shard& shard(std::size_t i) const { return *shards_[i]; }

  /// Wire-level counters of one local entity / summed over all of them.
  const WireStats& wire_stats(EntityId id) const;
  WireStats total_wire_stats() const;

  /// Protocol counters of one local entity (snapshot; stable after stop).
  proto::CoEntityStats::Snapshot protocol_stats(EntityId id) const;

  /// True when every local entity currently owes/awaits nothing.
  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

 private:
  friend class HostBuilder;
  Host() = default;

  EntityRuntime& runtime(EntityId id) const;

  std::vector<transport::UdpEndpoint> peers_;  // frozen at start()
  DeliverFn deliver_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<EntityRuntime*> by_entity_;  // EntityId -> runtime (or null)
  std::size_t locals_ = 0;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_flag_{false};
  std::atomic<State> state_{State::kBound};
};

/// Fluent construction for Host:
///
///   auto host = HostBuilder(8)            // cluster size n
///                   .shards(2)
///                   .entity(0).entity(1)  // local entities, ephemeral ports
///                   .peer(7, remote_ep)   // entity hosted elsewhere
///                   .deliver(on_deliver)
///                   .tracer(&tracer)
///                   .build();             // binds sockets -> bound
///   host->start();                        // shard threads   -> running
///   host->submit(0, bytes);
///   host->stop();                         // joined          -> stopped
///
/// Entities default to round-robin shard placement in declaration order.
class HostBuilder {
 public:
  /// `n` is the cluster size (all entities, local and remote).
  explicit HostBuilder(std::size_t n);

  /// Replace the whole protocol config (n is preserved from the builder).
  HostBuilder& proto(const proto::CoConfig& config);
  HostBuilder& shards(std::size_t count);
  /// Declare a local entity bound to `ep` (default: loopback, ephemeral
  /// port — resolved after build() via Host::endpoint()).
  HostBuilder& entity(EntityId id,
                      transport::UdpEndpoint ep =
                          transport::UdpEndpoint::loopback(0));
  /// Declare a remote entity's endpoint (may also be set later, while the
  /// host is bound, via Host::set_peer()).
  HostBuilder& peer(EntityId id, transport::UdpEndpoint ep);
  HostBuilder& deliver(DeliverFn fn);
  /// Shared binary event tracer (not owned; one lock-free stream per shard
  /// thread, so the merged snapshot is the cross-shard record).
  HostBuilder& tracer(obs::trace::Tracer* tracer);
  /// Host-wide step tap (not owned): sees every local entity's effects and
  /// trace records (src/driver/effect_tap.h). It runs on the shard threads,
  /// concurrently when there are several, so it must synchronize itself;
  /// records name their actor, so one tap serves every entity.
  HostBuilder& effect_tap(driver::EffectTap* tap);
  /// Sender-side loss injection for every local entity; entity i uses
  /// seed + i so shards stay deterministic per entity.
  HostBuilder& send_loss(double probability,
                         std::uint64_t seed = Rng::kDefaultSeed);
  /// Capacity of each entity's SPSC submission ring.
  HostBuilder& submit_queue(std::size_t capacity);
  /// Busy-poll window after the last event before a shard sleeps in
  /// poll(2) (zero = sleep immediately). Unset, build() chooses: kDefaultSpin
  /// when the machine has at least one core per shard plus one for
  /// producers, zero otherwise — spinning shards on an oversubscribed box
  /// steal cycles from the very threads that feed them and make latency
  /// worse, not better.
  HostBuilder& poll_spin(std::chrono::microseconds window);
  /// Opt-in per-shard CPU affinity: shard s pins to CPU
  /// s % hardware_concurrency. Off by default; best effort (an
  /// unsupported/denied pin is ignored).
  HostBuilder& pin_shards();

  /// Validate and bind: returns a Host in the `bound` state. Returns a
  /// unique_ptr because shards pin the host's peer table address.
  std::unique_ptr<Host> build();

 private:
  proto::CoConfig proto_;
  std::size_t shards_ = 1;
  std::vector<std::pair<EntityId, transport::UdpEndpoint>> entities_;
  std::vector<std::pair<EntityId, transport::UdpEndpoint>> remote_peers_;
  DeliverFn deliver_;
  obs::trace::Tracer* tracer_ = nullptr;
  driver::EffectTap* effect_tap_ = nullptr;
  double send_loss_ = 0.0;
  std::uint64_t loss_seed_ = Rng::kDefaultSeed;
  std::size_t submit_queue_capacity_ = kDefaultSubmitQueueCapacity;
  std::optional<std::chrono::microseconds> poll_spin_;  // nullopt = auto
  bool pin_shards_ = false;
};

}  // namespace co::host
