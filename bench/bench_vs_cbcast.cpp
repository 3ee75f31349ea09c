// Experiment E7 — CO protocol vs ISIS CBCAST (§1, §5).
//
// Paper's two comparative claims:
//  (a) "The CO protocol uses the sequence numbers ... while ISIS requires
//      more computation to synchronize the virtual clocks." — measured here
//      at the primitive level: the Theorem 4.1 ordering test (two integer
//      compares, O(1)) vs the vector-clock comparison and merge CBCAST
//      performs per delivery (O(n) each).
//  (b) "PDU loss can be detected by using SEQ. ... By using the virtual
//      clock, the PDU loss cannot be detected." — demonstrated by running
//      both on a lossy network: CO detects + recovers and completes; CBCAST
//      silently stalls with messages stuck in its delay queues.
#include <chrono>
#include <iostream>

#include "src/baselines/sim_cluster.h"
#include "src/clocks/vector_clock.h"
#include "src/co/pdu.h"
#include "src/common/table.h"
#include "src/harness/experiment.h"

namespace {

struct CbcastRun {
  bool completed = false;
  double proc_us_per_msg = 0.0;
  std::uint64_t stuck = 0;     // messages still in delay queues
  std::uint64_t undelivered = 0;
};

CbcastRun run_cbcast(std::size_t n, double loss, std::uint64_t seed,
                     std::size_t messages_per_entity) {
  using namespace co;
  net::McConfig cfg = net::McConfig::reliable(n, 100 * sim::kMicrosecond);
  cfg.injected_loss = loss;
  cfg.seed = seed;
  baselines::CbcastCluster cluster(n, cfg);
  // Interleave senders with small gaps so causal chains form.
  for (std::size_t m = 0; m < messages_per_entity; ++m) {
    for (std::size_t e = 0; e < n; ++e) {
      cluster.broadcast_text(static_cast<EntityId>(e), "x");
      cluster.scheduler().run_until(cluster.scheduler().now() +
                                    30 * sim::kMicrosecond);
    }
  }
  CbcastRun r;
  r.completed = cluster.run(600'000 * sim::kMillisecond);
  std::uint64_t delivered = 0, received = 0, proc_ns = 0;
  for (std::size_t e = 0; e < n; ++e) {
    const auto& s = cluster.entity(static_cast<EntityId>(e)).stats();
    delivered += s.delivered;
    received += s.received;
    proc_ns += s.processing_ns;
    r.stuck += cluster.entity(static_cast<EntityId>(e)).delay_queue_size();
  }
  r.undelivered =
      static_cast<std::uint64_t>(n) * cluster.sent().size() - delivered;
  if (received) r.proc_us_per_msg = static_cast<double>(proc_ns) / 1e3 /
                                    static_cast<double>(received);
  return r;
}

}  // namespace

int main() {
  using namespace co;

  std::cout << "=== E7a: cost of the ordering machinery, CO vs CBCAST ===\n"
            << "(CO decides p \u227a q with two integer compares — Theorem "
               "4.1; CBCAST compares and merges O(n) vector clocks.)\n\n";
  {
    using clocks::VectorClock;
    using proto::CoPdu;
    Table table({"n", "CO Thm4.1 test [ns]", "VC compare [ns]",
                 "VC merge [ns]"});
    for (const std::size_t n : {4u, 16u, 64u, 256u}) {
      Rng rng(n);
      CoPdu p, q;
      p.src = 0;
      p.seq = 100;
      p.ack.assign(n, 50);
      q.src = 1;
      q.seq = 120;
      q.ack.assign(n, 110);
      VectorClock a(n), b(n);
      for (std::size_t i = 0; i < n; ++i) {
        a.set(static_cast<EntityId>(i), rng.next_below(100));
        b.set(static_cast<EntityId>(i), rng.next_below(100));
      }
      constexpr int kIters = 2'000'000;
      auto time_ns = [&](auto&& fn) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kIters; ++i) fn(i);
        const auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                   .count() /
               static_cast<double>(kIters);
      };
      volatile bool sink = false;
      volatile std::uint64_t sink64 = 0;
      const double t_co = time_ns([&](int i) {
        q.ack[1] = 110 + static_cast<SeqNo>(i & 1);  // defeat hoisting
        sink = proto::causally_precedes(p, q);
      });
      const double t_cmp = time_ns([&](int i) {
        b.set(1, 50 + static_cast<std::uint64_t>(i & 1));
        sink = VectorClock::happened_before(a, b);
      });
      const double t_merge = time_ns([&](int i) {
        b.set(2, static_cast<std::uint64_t>(i));
        a.merge(b);
        sink64 = a[2];
      });
      table.add_row({Table::num(static_cast<std::uint64_t>(n)),
                     Table::num(t_co, 2), Table::num(t_cmp, 2),
                     Table::num(t_merge, 2)});
    }
    table.print(std::cout);
    std::cout << "Expected shape: the Theorem 4.1 test is O(1) in n; the "
                 "vector-clock comparison and merge CBCAST needs per "
                 "delivery grow linearly.\n";
  }

  std::cout << "\n=== E7b: behaviour under PDU loss ===\n"
            << "(CO detects loss from SEQ/ACK and recovers; CBCAST's virtual "
               "clocks cannot detect loss at all.)\n\n";
  {
    Table table({"loss", "CO completed", "CO undelivered", "CBCAST completed",
                 "CBCAST stuck msgs"});
    for (const double loss : {0.01, 0.05, 0.10}) {
      harness::ExperimentConfig cfg;
      cfg.n = 4;
      cfg.buffer_capacity = 1u << 20;
      cfg.injected_loss = loss;
      cfg.workload.arrival = app::WorkloadConfig::Arrival::kUniform;
      cfg.workload.mean_interval = 300 * sim::kMicrosecond;
      cfg.workload.messages_per_entity = 50;
      cfg.deadline = 3'600'000 * sim::kMillisecond;
      cfg.seed = static_cast<std::uint64_t>(loss * 100) + 17;
      const auto co_r = harness::run_co_experiment(cfg);
      const auto cb = run_cbcast(4, loss, cfg.seed, 50);
      table.add_row({Table::num(loss, 2), co_r.completed ? "yes" : "NO",
                     Table::num(std::uint64_t{0}),
                     cb.completed ? "yes (lucky)" : "NO (stalled)",
                     Table::num(cb.stuck)});
    }
    table.print(std::cout);
    std::cout << "Expected shape: CO completes at every loss rate; CBCAST "
                 "stalls with undeliverable messages as soon as anything is "
                 "lost.\n";
  }
  return 0;
}
