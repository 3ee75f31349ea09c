// Microbenchmarks (google-benchmark) of the ordering primitives — the
// mechanism-level half of experiment E7a.
//
// The paper argues the CO protocol orders PDUs with plain sequence numbers
// while "more computation to synchronize the virtual clock is required" in
// ISIS. Here the primitive operations are timed head-to-head:
//   * Thm 4.1 causality test (two comparisons + one vector index)  vs
//     vector-clock comparison (O(n) component scan);
//   * ACK-vector acceptance bookkeeping vs vector-clock merge;
//   * CPI insertion into a PRL of realistic depth;
//   * wire encode/decode of a CO PDU.
#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/clocks/vector_clock.h"
#include "src/driver/cluster.h"
#include "src/co/core.h"
#include "src/co/effects.h"
#include "src/co/kernels/kernels.h"
#include "src/co/kernels/layout.h"
#include "src/co/prl.h"
#include "src/co/wire.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/obs/trace/sink.h"
#include "src/obs/trace/tracer.h"

namespace {

using namespace co;
using namespace co::proto;

CoPdu make_pdu(EntityId src, SeqNo seq, std::size_t n, Rng& rng) {
  CoPdu p;
  p.cid = 1;
  p.src = src;
  p.seq = seq;
  p.ack.resize(n);
  for (auto& a : p.ack) a = rng.next_below(seq + 1) + 1;
  p.buf = 64;
  return p;
}

void BM_Theorem41Test(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const CoPdu p = make_pdu(0, 100, n, rng);
  const CoPdu q = make_pdu(1, 120, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(causally_precedes(p, q));
    benchmark::DoNotOptimize(causally_precedes(q, p));
  }
}
BENCHMARK(BM_Theorem41Test)->Arg(4)->Arg(16)->Arg(64);

void BM_VectorClockCompare(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  clocks::VectorClock a(n), b(n);
  Rng rng(2);
  for (std::size_t i = 0; i < n; ++i) {
    a.set(static_cast<EntityId>(i), rng.next_below(100));
    b.set(static_cast<EntityId>(i), rng.next_below(100));
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(clocks::VectorClock::compare(a, b));
}
BENCHMARK(BM_VectorClockCompare)->Arg(4)->Arg(16)->Arg(64);

void BM_VectorClockMerge(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  clocks::VectorClock a(n), b(n);
  Rng rng(3);
  for (std::size_t i = 0; i < n; ++i)
    b.set(static_cast<EntityId>(i), rng.next_below(100));
  for (auto _ : state) {
    a.merge(b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_VectorClockMerge)->Arg(4)->Arg(16)->Arg(64);

void BM_CpiInsert(benchmark::State& state) {
  const std::size_t n = 8;
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  for (auto _ : state) {
    state.PauseTiming();
    Prl prl;
    // Fill with a causally consistent chain (same source => ordered).
    for (std::size_t i = 0; i < depth; ++i)
      prl.cpi_insert(make_pdu(0, i + 1, n, rng));
    CoPdu p = make_pdu(1, 5, n, rng);
    p.ack.assign(n, 1);  // concurrent with everything -> worst-case scan
    state.ResumeTiming();
    prl.cpi_insert(std::move(p));
  }
}
BENCHMARK(BM_CpiInsert)->Arg(8)->Arg(32)->Arg(128);

// --- SIMD kernel layer (src/co/kernels) ------------------------------------
// Each kernel is timed under two backends selected by the second range arg:
// 0 = the portable scalar reference, 1 = the process-wide dispatch
// (kern::selected(): AVX2 > scalar on x86-64). The n sweep
// (32 -> 1024) feeds the EXPERIMENTS.md scaling curve: the scalar cost
// grows linearly in n while the SIMD backends grow at lane-width fraction
// of that slope.

/// Shared randomized kernel operands for cluster size n.
struct KernelFixture {
  explicit KernelFixture(std::size_t n, std::uint64_t seed = 7) : n_(n) {
    Rng rng(seed);
    row.assign(n, 0);
    ack.assign(n, 0);
    mins.assign(n, 0);
    req.assign(n, 0);
    known_max.assign(n, 0);
    high.assign(n, 0);
    flags.assign(n, 1);
    mask.assign(kern::mask_words(n), 0);
    gate_ack.assign(n, 0);
    for (std::size_t k = 0; k < n; ++k) {
      row[k] = rng.next_below(1000) + 1;
      ack[k] = rng.next_below(1000) + 1;
      mins[k] = rng.next_below(row[k]) + 1;
      req[k] = rng.next_below(1000) + 1;
      known_max[k] = rng.next_below(1000);
      high[k] = rng.next_below(1000);
      // The gate's hot path is the PASS case (every lane scanned): in a
      // healthy run predecessors are packed before dependents arrive. A
      // fail-heavy operand set would just time scalar's lane-0 early exit.
      gate_ack[k] = rng.next_below(high[k] + 2);
    }
    table.reset(n, n, 1);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        table.row(r)[c] = rng.next_below(1000) + 1;
  }

  std::size_t n_;
  std::vector<SeqNo> row, ack, mins, req, known_max, high, gate_ack;
  std::vector<std::uint8_t> flags;
  std::vector<std::uint64_t> mask;
  kern::SeqTable table;
};

const kern::KernelOps& bench_ops(std::int64_t which) {
  return which == 0 ? *kern::by_name("scalar") : kern::selected();
}

void BM_KernelMergeMax(benchmark::State& state) {
  KernelFixture f(static_cast<std::size_t>(state.range(0)));
  const kern::KernelOps& ops = bench_ops(state.range(1));
  state.SetLabel(ops.name);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        ops.merge_max(f.row.data(), f.ack.data(), f.mins.data(), f.n_));
}

void BM_KernelColumnMins(benchmark::State& state) {
  KernelFixture f(static_cast<std::size_t>(state.range(0)));
  const kern::KernelOps& ops = bench_ops(state.range(1));
  state.SetLabel(ops.name);
  for (auto _ : state) {
    ops.column_mins(f.table.data(), f.table.rows(), f.table.cols(),
                    f.table.stride(), f.mins.data());
    benchmark::DoNotOptimize(f.mins.data());
  }
}

void BM_KernelLossScan(benchmark::State& state) {
  KernelFixture f(static_cast<std::size_t>(state.range(0)));
  const kern::KernelOps& ops = bench_ops(state.range(1));
  state.SetLabel(ops.name);
  for (auto _ : state) {
    ops.loss_scan(f.ack.data(), f.req.data(), f.known_max.data(), f.n_,
                  f.mask.data());
    benchmark::DoNotOptimize(f.mask.data());
  }
}

void BM_KernelLtMask(benchmark::State& state) {
  KernelFixture f(static_cast<std::size_t>(state.range(0)));
  const kern::KernelOps& ops = bench_ops(state.range(1));
  state.SetLabel(ops.name);
  for (auto _ : state) {
    ops.lt_mask(f.row.data(), f.mins.data(), f.n_, f.mask.data());
    benchmark::DoNotOptimize(f.mask.data());
  }
}

void BM_KernelCausalGate(benchmark::State& state) {
  KernelFixture f(static_cast<std::size_t>(state.range(0)));
  const kern::KernelOps& ops = bench_ops(state.range(1));
  state.SetLabel(ops.name);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        ops.causal_gate(f.gate_ack.data(), f.high.data(), f.n_, f.n_ / 2));
}

void BM_KernelAllSet(benchmark::State& state) {
  KernelFixture f(static_cast<std::size_t>(state.range(0)));
  const kern::KernelOps& ops = bench_ops(state.range(1));
  state.SetLabel(ops.name);
  for (auto _ : state)
    benchmark::DoNotOptimize(ops.all_set(f.flags.data(), f.n_, f.n_ / 2));
}

#define CO_KERNEL_BENCH(fn) \
  BENCHMARK(fn)->ArgsProduct({{32, 64, 128, 256, 512, 1024}, {0, 1}})
CO_KERNEL_BENCH(BM_KernelMergeMax);
CO_KERNEL_BENCH(BM_KernelColumnMins);
CO_KERNEL_BENCH(BM_KernelLossScan);
CO_KERNEL_BENCH(BM_KernelLtMask);
CO_KERNEL_BENCH(BM_KernelCausalGate);
CO_KERNEL_BENCH(BM_KernelAllSet);
#undef CO_KERNEL_BENCH

void BM_WireEncodeDecode(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  CoPdu p = make_pdu(0, 1000, n, rng);
  p.data.assign(64, 0xcd);
  const Message msg(p);
  for (auto _ : state) {
    const auto bytes = encode(msg);
    benchmark::DoNotOptimize(decode(bytes));
  }
}
BENCHMARK(BM_WireEncodeDecode)->Arg(4)->Arg(16)->Arg(64);

// Batch ingestion sweep over the sans-io core: feed the SAME arrival
// stream to a fresh n=32 CoCore through step() at 1/4/16/64 PDUs per
// call and report per-message cost. The receipt pipeline (PACK/ACK scan,
// pruning, deferred confirmation) runs once per step, so the curve shows
// how its cost amortizes across a batch; the batch-size-1 point IS the
// per-message path the drivers use for single arrivals.
Json::Object run_batch_sweep() {
  constexpr std::size_t kN = 32;           // cluster size (31 peers + self)
  constexpr std::size_t kMessages = 4096;  // arrivals per sweep point
  constexpr int kReps = 3;                 // best-of, to shed scheduler noise
  constexpr BufUnits kBuf = 1u << 16;

  CoConfig cfg;
  cfg.n = kN;
  cfg.window = 8;
  cfg.assumed_peer_buffer = kBuf;

  // Deterministic all-heard stream: peers 1..31 broadcast round-robin in
  // seq order; each PDU's ACK vector says its sender has heard everything
  // broadcast so far (entity 0 receives in the same order, so causal
  // dependencies are always already satisfied and delivery keeps pace).
  const auto make_inputs = [&] {
    std::vector<Input> inputs;
    inputs.reserve(kMessages);
    std::vector<SeqNo> next_seq(kN, 1);
    time::Tick t = 0;
    for (std::size_t i = 0; i < kMessages; ++i) {
      const EntityId from = 1 + static_cast<EntityId>(i % (kN - 1));
      CoPdu p;
      p.cid = 1;
      p.src = from;
      p.seq = next_seq[from]++;
      p.ack.resize(kN);
      p.ack[0] = 1;  // entity 0's own (ctrl) sends are never acked here
      for (std::size_t j = 1; j < kN; ++j) p.ack[j] = next_seq[j];
      p.buf = kBuf;
      p.data = {static_cast<std::uint8_t>(i)};
      t += 1000;  // 1 us apart; timers are armed but never fired
      inputs.push_back(Input{t, kBuf, MessageArrived{from, Message(std::move(p))}});
    }
    return inputs;
  };

  Json::Object sweep;
  for (const std::size_t batch : {1u, 4u, 16u, 64u}) {
    double best_us = 0.0;
    // rep 0 is an untimed warm-up (faults pages, ramps the clock) so the
    // first sweep point isn't penalized for running cold.
    for (int rep = -1; rep < kReps; ++rep) {
      const std::vector<Input> inputs = make_inputs();
      CoCore core(0, cfg);
      EffectBatch out;
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < inputs.size(); i += batch) {
        const std::size_t k = std::min(batch, inputs.size() - i);
        out.clear();
        core.step(&inputs[i], k, out);
      }
      const auto t1 = std::chrono::steady_clock::now();
      if (rep < 0) continue;
      const double us =
          std::chrono::duration<double, std::micro>(t1 - t0).count() /
          static_cast<double>(kMessages);
      if (rep == 0 || us < best_us) best_us = us;
    }
    sweep[std::to_string(batch)] = best_us;
  }
  return sweep;
}

// Per-kernel nanoseconds per call at cluster size n, for the scalar
// reference and the process-wide dispatch (kern::selected()). The
// regression gate asserts the dispatched backend never loses to scalar
// beyond noise; when CO_FORCE_SCALAR pins the dispatch to scalar the two
// columns time the same function and the gate is trivially satisfied.
Json::Object kernel_metrics(std::size_t n) {
  constexpr int kIters = 20000;
  constexpr int kReps = 3;
  KernelFixture f(n);

  const auto run_op = [&](const kern::KernelOps& ops, int op) {
    switch (op) {
      case 0:
        benchmark::DoNotOptimize(
            ops.merge_max(f.row.data(), f.ack.data(), f.mins.data(), f.n_));
        break;
      case 1:
        ops.column_mins(f.table.data(), f.table.rows(), f.table.cols(),
                        f.table.stride(), f.mins.data());
        benchmark::DoNotOptimize(f.mins.data());
        break;
      case 2:
        ops.loss_scan(f.ack.data(), f.req.data(), f.known_max.data(), f.n_,
                      f.mask.data());
        benchmark::DoNotOptimize(f.mask.data());
        break;
      case 3:
        ops.lt_mask(f.row.data(), f.mins.data(), f.n_, f.mask.data());
        benchmark::DoNotOptimize(f.mask.data());
        break;
      case 4:
        benchmark::DoNotOptimize(
            ops.causal_gate(f.gate_ack.data(), f.high.data(), f.n_, f.n_ / 2));
        break;
      default:
        benchmark::DoNotOptimize(ops.all_set(f.flags.data(), f.n_, f.n_ / 2));
        break;
    }
  };
  const auto time_ns = [&](const kern::KernelOps& ops, int op) {
    double best = 0.0;
    for (int rep = -1; rep < kReps; ++rep) {  // rep -1 is an untimed warm-up
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kIters; ++i) run_op(ops, op);
      const auto t1 = std::chrono::steady_clock::now();
      if (rep < 0) continue;
      const double ns =
          std::chrono::duration<double, std::nano>(t1 - t0).count() / kIters;
      if (rep == 0 || ns < best) best = ns;
    }
    return best;
  };

  const kern::KernelOps* backends[2] = {kern::by_name("scalar"),
                                        &kern::selected()};
  static constexpr const char* kSlots[2] = {"scalar", "dispatch"};
  static constexpr const char* kNames[6] = {"merge_max", "column_mins",
                                            "loss_scan", "lt_mask",
                                            "causal_gate", "all_set"};
  Json::Object kernels;
  for (int op = 0; op < 6; ++op) {
    Json::Object per;
    for (int b = 0; b < 2; ++b) per[kSlots[b]] = time_ns(*backends[b], op);
    kernels[kNames[op]] = Json(std::move(per));
  }
  return kernels;
}

// --- shared n=32 cluster workload ------------------------------------------

net::McConfig bench_net() {
  net::McConfig net;
  net.delay = net::DelayModel::fixed(100 * sim::kMicrosecond);
  net.buffer_capacity = 1u << 16;
  return net;
}

void pump_rounds(CoCluster& c, std::size_t n, int rounds) {
  for (int r = 0; r < rounds; ++r) {
    for (EntityId e = 0; e < static_cast<EntityId>(n); ++e)
      c.submit_text(e, "hot-path payload");
    if (!c.run_until_delivered(c.scheduler().now() +
                               600'000 * sim::kMillisecond))
      throw std::runtime_error("bench_micro: cluster failed to deliver");
  }
}

/// Summed (processing_ns, messages_processed) across all entities.
std::pair<std::uint64_t, std::uint64_t> cluster_processing(CoCluster& c,
                                                           std::size_t n) {
  std::pair<std::uint64_t, std::uint64_t> ns_msgs{0, 0};
  for (EntityId e = 0; e < static_cast<EntityId>(n); ++e) {
    const CoEntityStats::Snapshot s = c.entity(e).stats().snapshot();
    ns_msgs.first += s.processing_ns;
    ns_msgs.second += s.messages_processed;
  }
  return ns_msgs;
}

// The same n=32 workload under three tracing modes, reporting steady-phase
// tco per mode:
//   * disabled — no Tracer attached: every emit site costs one pointer
//     null check. This is the production default and the row the
//     regression gate holds to within --trace-slack (1%) of the committed
//     baseline;
//   * ring — the always-on flight recorder (overwrite-oldest rings);
//   * null_sink — streaming mode draining every record into the no-op
//     sink: full emit + drain cost with zero I/O, the sink-overhead floor.
Json::Object trace_overhead_metrics() {
  constexpr std::size_t kN = 32;
  constexpr int kWarmupRounds = 4;
  constexpr int kSteadyRounds = 12;
  constexpr int kReps = 3;  // best-of, to shed scheduler noise

  const auto tco_us = [&](obs::trace::Tracer* tracer) {
    double best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      auto cluster = ClusterBuilder(kN)
                         .window(8)
                         .net(bench_net())
                         .record_trace(false)
                         .tracer(tracer)
                         .build();
      CoCluster& c = *cluster;
      pump_rounds(c, kN, kWarmupRounds);
      const auto warm = cluster_processing(c, kN);
      pump_rounds(c, kN, kSteadyRounds);
      const auto done = cluster_processing(c, kN);
      const std::uint64_t msgs = done.second - warm.second;
      const double us = msgs ? static_cast<double>(done.first - warm.first) /
                                   1e3 / static_cast<double>(msgs)
                             : 0.0;
      if (rep == 0 || us < best) best = us;
    }
    return best;
  };

  Json::Object rows;
  rows["disabled_us_per_message"] = tco_us(nullptr);
  {
    obs::trace::Tracer ring;  // flight-recorder defaults
    rows["ring_us_per_message"] = tco_us(&ring);
  }
  {
    obs::trace::TracerConfig cfg;
    cfg.overwrite_oldest = false;
    obs::trace::Tracer streaming(cfg, &obs::trace::null_trace_sink());
    rows["null_sink_us_per_message"] = tco_us(&streaming);
  }
  return rows;
}

// --json FILE: the end-to-end half of E7a — run a full n=32 cluster under
// continuous traffic and report the protocol's hot-path cost figures:
//   * tco_us_per_message — wall-clock protocol processing per message,
//     measured over the steady phase only (warm pools, warm caches);
//   * steady_state_allocations — fresh PduPool heap constructions during
//     the steady phase. The pooled hot path promises exactly zero: every
//     accept→ack cycle runs on recycled PDU bodies.
// CI's bench-smoke step diffs this against the committed
// BENCH_baseline.json (scripts/check_bench_regression.py).
int run_hot_path_json(const std::string& path) {
  constexpr std::size_t kN = 32;
  constexpr int kWarmupRounds = 10;
  constexpr int kSteadyRounds = 40;

  auto cluster = ClusterBuilder(kN)
                     .window(8)
                     .net(bench_net())
                     .record_trace(false)  // oracle costs O(n) per event
                     .build();
  CoCluster& c = *cluster;

  const auto pool_allocations = [&c] {
    std::uint64_t total = 0;
    for (EntityId e = 0; e < static_cast<EntityId>(kN); ++e)
      total += c.entity(e).pool().bodies_allocated();
    return total;
  };

  pump_rounds(c, kN, kWarmupRounds);
  const std::uint64_t allocs_warm = pool_allocations();
  const auto proc_warm = cluster_processing(c, kN);
  pump_rounds(c, kN, kSteadyRounds);
  const std::uint64_t steady_allocs = pool_allocations() - allocs_warm;
  const auto proc_done = cluster_processing(c, kN);

  const std::uint64_t steady_ns = proc_done.first - proc_warm.first;
  const std::uint64_t steady_msgs = proc_done.second - proc_warm.second;
  std::uint64_t reused = 0;
  for (EntityId e = 0; e < static_cast<EntityId>(kN); ++e)
    reused += c.entity(e).pool().bodies_reused();

  Json::Object doc;
  doc["n"] = std::uint64_t{kN};
  doc["rounds_warmup"] = std::uint64_t{kWarmupRounds};
  doc["rounds_steady"] = std::uint64_t{kSteadyRounds};
  doc["messages_steady"] = steady_msgs;
  doc["tco_us_per_message"] =
      steady_msgs ? static_cast<double>(steady_ns) / 1e3 /
                        static_cast<double>(steady_msgs)
                  : 0.0;
  doc["pool_bodies_allocated"] = pool_allocations();
  doc["pool_bodies_reused"] = reused;
  doc["steady_state_allocations"] = steady_allocs;
  // Per-message cost of step() at 1/4/16/64 PDUs per call (microseconds).
  // The regression gate requires the batched points to be no slower per
  // message than the batch-size-1 path.
  doc["batch_step_us_per_message"] = run_batch_sweep();
  // Which SIMD backend the hot loops dispatched through, and per-kernel
  // ns/call scalar-vs-dispatch at the same n. The regression gate requires
  // the dispatched backend to keep pace with scalar on every kernel.
  doc["kernel_dispatch"] = std::string(kern::selected().name);
  doc["kernels_ns"] = kernel_metrics(kN);
  // tco under the three tracing modes. The regression gate pins the
  // "disabled" row (tracer not attached — the production default) to
  // within 1% of the committed baseline: the emit call sites themselves
  // must stay off the hot path.
  doc["trace_overhead"] = trace_overhead_metrics();

  const std::string text = Json(std::move(doc)).dump(2);
  std::ofstream out(path);
  out << text << '\n';
  if (!out) {
    std::cerr << "bench_micro: cannot write " << path << '\n';
    return 1;
  }
  std::cout << text << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      if (i + 1 >= argc) {
        std::cerr << "usage: bench_micro [--json FILE | benchmark flags]\n";
        return 2;
      }
      return run_hot_path_json(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
