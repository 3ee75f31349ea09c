// `steady`: 8 entities on a 2-shard loopback host::Host.
//
// One generator thread (the caller) feeds every entity through
// Host::submit; the 2 shard threads run the protocol and the sockets, so the
// process uses 3 threads of the machine's 4. The load is an open loop: the
// k-th submit is due at start + k/rate, the generator sleeps until then,
// and latency counts from the due time, so a stall also delays the submits
// queued behind it.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <sstream>
#include <thread>

#include "cobench/src/bench.h"
#include "cobench/src/ledger.h"
#include "cobench/src/probes.h"
#include "src/common/rng.h"
#include "src/driver/cluster.h"
#include "src/host/host.h"
#include "src/obs/trace/tracer.h"

namespace cobench {

namespace {

using Clock = std::chrono::steady_clock;
using namespace std::chrono_literals;

// Latencies kept per run (over all hosts): p99 still has 10k samples
// beyond it.
constexpr std::size_t kPooledSamples = std::size_t{1} << 20;

/// Fixed-capacity sample store. The buffer is allocated and touched up
/// front, so the harness's memory does not grow with the figures it records
/// (peak_rss_mb stays a property of the system); past capacity it keeps a
/// uniform reservoir (algorithm R), so every delivery of the window is
/// equally likely to be in the sample.
class Samples {
 public:
  explicit Samples(std::size_t capacity = 0, std::uint64_t seed = 1)
      : buf_(capacity, 0.0f), rng_(seed | 1) {}

  void add(double x) {
    ++seen_;
    if (size_ < buf_.size()) {
      buf_[size_++] = static_cast<float>(x);
      return;
    }
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    const std::uint64_t j = rng_ % seen_;
    if (j < buf_.size()) buf_[j] = static_cast<float>(x);
  }
  std::vector<double> values() const {
    return std::vector<double>(buf_.begin(), buf_.begin() + size_);
  }

 private:
  std::vector<float> buf_;
  std::size_t size_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t rng_;
};

/// Per-receiver measurement state, written only by the shard thread that
/// owns the receiver (the atomics are read by the generator mid-run).
struct alignas(64) Receiver {
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> own_delivered{0};
  Samples tap_us;     // submits due inside the window
  Samples commit_us;  // the same, own deliveries only
  std::vector<DeliveryRec> trace_deliveries;
};

/// Everything one load window produces.
struct LoadResult {
  std::vector<std::uint64_t> accepted;  // per entity
  std::uint64_t queue_full = 0;
  std::uint64_t stopped = 0;
  std::uint64_t window_submits = 0;
  std::uint64_t window_deliveries = 0;
  double window_s = 0.0;
  double deliveries_per_s = 0.0;     // median over 100 ms slices
  double cpu_us_per_delivery = 0.0;  // median over 100 ms slices
  double process_cpu_s = 0.0;
  double gen_cpu_s = 0.0;
  ThreadTimes shard_cpu;
  std::vector<double> tap_ms, commit_ms;  // submits due in the window
  std::vector<double> submit_ns, late_ms;
  double inflight_mean = 0.0;
  co::proto::CoEntityStats::Snapshot totals;  // summed over entities
  co::host::WireStats wire;
  std::optional<std::string> violation;
  // Traced windows only.
  std::vector<std::vector<SubmitTimes>> submits;
  std::vector<DeliveryRec> deliveries;
};

co::proto::CoConfig wire_proto() {
  co::proto::CoConfig cfg;
  cfg.window = 64;
  // Loopback RTT is microseconds: a 1 ms defer batches confirmations
  // without parking deliveries; the retransmit timeout only matters under
  // loss, which this workload does not inject.
  cfg.defer_timeout = 1 * co::time::kMillisecond;
  cfg.retransmit_timeout = 25 * co::time::kMillisecond;
  // Confirmations ride on data PDUs and the defer timer only. With the
  // heard-all fast path on, confirmation chains of ack-only PDUs form or
  // not depending on how fast the shared machine runs at the moment, and
  // tap p50 switches between about 0.2 and 0.45 ms from run to run.
  cfg.confirm_on_heard_all = false;
  return cfg;
}

std::unique_ptr<co::host::Host> build_host(const WireConfig& c,
                                           co::host::DeliverFn deliver,
                                           co::obs::trace::Tracer* tracer) {
  co::host::HostBuilder b(c.entities);
  b.proto(wire_proto()).shards(c.shards).deliver(std::move(deliver));
  if (tracer != nullptr) b.tracer(tracer);
  for (std::size_t e = 0; e < c.entities; ++e)
    b.entity(static_cast<EntityId>(e));
  return b.build();
}

std::int64_t ns_since(Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

void add_totals(co::proto::CoEntityStats::Snapshot& t,
                const co::proto::CoEntityStats::Snapshot& s) {
  t.data_pdus_sent += s.data_pdus_sent;
  t.ctrl_pdus_sent += s.ctrl_pdus_sent;
  t.ret_pdus_sent += s.ret_pdus_sent;
  t.retransmissions_sent += s.retransmissions_sent;
  t.parked_out_of_order += s.parked_out_of_order;
  t.delivered_to_app += s.delivered_to_app;
  t.f1_detections += s.f1_detections;
  t.f2_detections += s.f2_detections;
  t.processing_ns += s.processing_ns;
  t.messages_processed += s.messages_processed;
}

/// One load window on a fresh host: warmup, `seconds` measured, drain.
/// Each receiver keeps a uniform sample of at most `cap` latencies, and the
/// generator one of at most `cap` submit timings.
LoadResult run_load(const WireConfig& c, std::uint64_t seed, double seconds,
                    std::size_t cap, co::obs::trace::Tracer* tracer) {
  const std::size_t n = c.entities;

  std::vector<std::unique_ptr<Receiver>> receivers;
  for (std::size_t r = 0; r < n; ++r) {
    auto rx = std::make_unique<Receiver>();
    rx->tap_us = Samples(cap, seed + 2 * r + 1);
    rx->commit_us = Samples(cap / n + 1, seed + 2 * r + 2);
    receivers.push_back(std::move(rx));
  }
  DeliveryChecker checker(n);
  LoadResult out;

  // Load-window bounds in the host's clock.
  std::int64_t load_start_ns = 0, end_ns = 0;

  Clock::time_point epoch;
  const bool trace = tracer != nullptr;
  auto host = build_host(
      c,
      [&](EntityId at, EntityId src, const std::vector<std::uint8_t>& data) {
        const std::int64_t now = ns_since(epoch);
        Receiver& rx = *receivers[static_cast<std::size_t>(at)];
        const auto h = unpack_header(data.data(), data.size());
        if (!h || h->src != src) {
          checker.on_delivery(at, src, ~std::uint64_t{0});
          return;
        }
        checker.on_delivery(at, src, h->index);
        if (h->due_ns >= load_start_ns && h->due_ns < end_ns) {
          rx.tap_us.add(static_cast<double>(now - h->due_ns) / 1e3);
          if (at == src)
            rx.commit_us.add(static_cast<double>(now - h->call_ns) / 1e3);
        }
        if (trace)
          rx.trace_deliveries.push_back(DeliveryRec{at, src, h->index, now});
        rx.delivered.fetch_add(1, std::memory_order_relaxed);
        if (at == src) rx.own_delivered.fetch_add(1, std::memory_order_release);
      },
      tracer);
  epoch = host->epoch();
  // The window bounds are fixed before start(): the shard threads read
  // them, and thread creation orders these writes before those reads.
  const std::int64_t begin_ns = ns_since(epoch);
  load_start_ns = begin_ns + static_cast<std::int64_t>(c.warmup_s * 1e9);
  end_ns = load_start_ns + static_cast<std::int64_t>(seconds * 1e9);
  host->start();

  const auto total_delivered = [&receivers] {
    std::uint64_t total = 0;
    for (const auto& r : receivers)
      total += r->delivered.load(std::memory_order_relaxed);
    return total;
  };
  const auto own_delivered = [&receivers](std::size_t e) {
    return receivers[e]->own_delivered.load(std::memory_order_acquire);
  };

  co::Rng rng(seed);
  std::vector<std::uint8_t> payload(std::max(c.payload, kHeaderBytes));
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_below(256));
  out.accepted.assign(n, 0);
  if (trace) out.submits.assign(n, {});
  Samples submit_ns(cap, seed + 101), late_ms(cap, seed + 102);

  // Entity order: every round of n submits visits each entity once, in a
  // seeded order, so per-entity rates stay exact.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::size_t order_pos = n;
  const auto next_entity = [&] {
    if (order_pos == n) {
      for (std::size_t i = n - 1; i > 0; --i)
        std::swap(order[i], order[rng.next_below(i + 1)]);
      order_pos = 0;
    }
    return order[order_pos++];
  };

  const auto submit_one = [&](std::size_t e, std::int64_t due) {
    const std::int64_t call = ns_since(epoch);
    Header h;
    h.due_ns = due;
    h.call_ns = call;
    h.src = static_cast<std::int32_t>(e);
    h.index = out.accepted[e];
    pack_header(h, payload.data());
    const auto res = host->submit(static_cast<EntityId>(e), payload);
    const std::int64_t ret = ns_since(epoch);
    if (res == co::host::SubmitResult::kQueueFull) {
      ++out.queue_full;
      return false;
    }
    if (res == co::host::SubmitResult::kStopped) {
      ++out.stopped;
      return false;
    }
    ++out.accepted[e];
    if (call >= load_start_ns) {
      ++out.window_submits;
      submit_ns.add(static_cast<double>(ret - call));
      late_ms.add(static_cast<double>(call - h.due_ns) / 1e6);
    }
    if (trace) out.submits[e].push_back(SubmitTimes{h.due_ns, call, ret});
    return true;
  };

  // Open-loop pacing sleeps 100 us between submits; the default 50 us
  // timer slack would make every wakeup late by half a period.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

  std::uint64_t deliveries_at_start = 0;
  double cpu_at_start = 0.0, gen_at_start = 0.0;
  ThreadTimes shards_at_start;
  bool window_open = false;
  // Delivered rate and CPU per delivery are medians over 100 ms slices of
  // the window, so a stall of the machine in one slice does not move them.
  std::vector<double> slice_rate, slice_cpu;
  std::int64_t slice_start = 0;
  std::uint64_t slice_deliveries = 0;
  double slice_cpu_start = 0.0;
  const auto open_window = [&] {
    window_open = true;
    deliveries_at_start = total_delivered();
    cpu_at_start = process_cpu_s();
    gen_at_start = thread_cpu_s();
    shards_at_start = other_threads_cpu();
    slice_start = ns_since(epoch);
    slice_deliveries = deliveries_at_start;
    slice_cpu_start = cpu_at_start;
  };

  double inflight_sum = 0.0;
  std::uint64_t inflight_samples = 0;
  std::int64_t next_sample = load_start_ns;
  const auto sample = [&](std::int64_t now) {
    if (now < next_sample) return;
    next_sample = now + 1'000'000;  // every millisecond
    std::uint64_t inflight = 0;
    for (std::size_t e = 0; e < n; ++e)
      inflight += out.accepted[e] - own_delivered(e);
    inflight_sum += static_cast<double>(inflight);
    ++inflight_samples;
    const std::int64_t t = ns_since(epoch);
    if (t - slice_start < 100'000'000) return;
    const std::uint64_t d = total_delivered();
    const double cpu = process_cpu_s();
    if (d > slice_deliveries) {
      const auto delivered = static_cast<double>(d - slice_deliveries);
      slice_rate.push_back(delivered * 1e9 /
                           static_cast<double>(t - slice_start));
      slice_cpu.push_back((cpu - slice_cpu_start) * 1e6 / delivered);
    }
    slice_start = t;
    slice_deliveries = d;
    slice_cpu_start = cpu;
  };

  const double period_ns = 1e9 / c.rate;
  for (std::uint64_t k = 0;; ++k) {
    const auto due = begin_ns + static_cast<std::int64_t>(
                                    static_cast<double>(k) * period_ns);
    if (due >= end_ns) break;
    if (!window_open && due >= load_start_ns) open_window();
    const std::int64_t now = ns_since(epoch);
    if (now < due)
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    submit_one(next_entity(), due);
    if (window_open) sample(due);
  }
  if (!window_open) open_window();
  out.window_s = static_cast<double>(ns_since(epoch) - load_start_ns) / 1e9;
  out.window_deliveries = total_delivered() - deliveries_at_start;
  out.process_cpu_s = process_cpu_s() - cpu_at_start;
  out.gen_cpu_s = thread_cpu_s() - gen_at_start;
  const ThreadTimes shards_at_end = other_threads_cpu();
  out.shard_cpu.user_s = shards_at_end.user_s - shards_at_start.user_s;
  out.shard_cpu.sys_s = shards_at_end.sys_s - shards_at_start.sys_s;
  out.inflight_mean =
      inflight_samples ? inflight_sum / static_cast<double>(inflight_samples)
                       : 0.0;
  if (slice_rate.empty() && out.window_deliveries > 0) {  // < one slice
    slice_rate.push_back(static_cast<double>(out.window_deliveries) /
                         out.window_s);
    slice_cpu.push_back(out.process_cpu_s * 1e6 /
                        static_cast<double>(out.window_deliveries));
  }
  out.deliveries_per_s = median(slice_rate);
  out.cpu_us_per_delivery = median(slice_cpu);

  // Drain: every accepted submit must reach every entity.
  const std::uint64_t expected =
      std::accumulate(out.accepted.begin(), out.accepted.end(),
                      std::uint64_t{0}) *
      n;
  const auto drain_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(c.drain_s));
  while (total_delivered() < expected && Clock::now() < drain_deadline)
    std::this_thread::sleep_for(1ms);
  host->stop();

  out.violation = checker.verify(out.accepted);
  for (std::size_t e = 0; e < n; ++e)
    add_totals(out.totals, host->protocol_stats(static_cast<EntityId>(e)));
  out.wire = host->total_wire_stats();

  for (const auto& rx : receivers) {
    for (const double us : rx->tap_us.values()) out.tap_ms.push_back(us / 1e3);
    for (const double us : rx->commit_us.values())
      out.commit_ms.push_back(us / 1e3);
  }
  out.submit_ns = submit_ns.values();
  out.late_ms = late_ms.values();
  if (trace)
    for (const auto& rx : receivers)
      out.deliveries.insert(out.deliveries.end(), rx->trace_deliveries.begin(),
                            rx->trace_deliveries.end());
  return out;
}

/// Fold one host's counts into the per-layer totals (`into`'s
/// inflight_mean accumulates a sum of means).
void pool(LoadResult& into, const LoadResult& r) {
  for (std::size_t e = 0; e < r.accepted.size(); ++e)
    into.accepted[e] += r.accepted[e];
  into.queue_full += r.queue_full;
  into.stopped += r.stopped;
  into.window_submits += r.window_submits;
  into.window_deliveries += r.window_deliveries;
  into.process_cpu_s += r.process_cpu_s;
  into.gen_cpu_s += r.gen_cpu_s;
  into.shard_cpu.user_s += r.shard_cpu.user_s;
  into.shard_cpu.sys_s += r.shard_cpu.sys_s;
  into.inflight_mean += r.inflight_mean;
  add_totals(into.totals, r.totals);
  into.wire += r.wire;
}

/// A float pool of `capacity` samples, allocated and touched up front so
/// filling it does not grow the harness's resident memory.
std::vector<float> touched_pool(std::size_t capacity) {
  std::vector<float> pool(capacity, 0.0f);
  pool.clear();
  return pool;
}

void append(std::vector<float>& pool, const std::vector<double>& samples) {
  pool.insert(pool.end(), samples.begin(), samples.end());
}

double pooled_quantile(const std::vector<float>& pool, double q) {
  std::vector<double> values(pool.begin(), pool.end());
  return quantile(values, q);
}

/// Median build+start time of `repeats` throwaway hosts.
double median_setup_s(const WireConfig& c, int repeats) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    auto host = build_host(c, nullptr, nullptr);
    host->start();
    times.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    host->stop();
  }
  return median(times);
}

/// Codec cost over the message mix of a simulated cluster configured like
/// the wire workloads (same n, window and timers, no loss).
CodecCost wire_codec_probe(const WireConfig& c, std::uint64_t seed) {
  EffectCollector collector;
  co::net::McConfig net;
  net.delay = co::net::DelayModel::fixed(20 * co::time::kMicrosecond);
  net.buffer_capacity = 1u << 20;
  net.seed = seed;
  auto cluster = co::proto::ClusterBuilder(c.entities)
                     .config(wire_proto())
                     .net(net)
                     .record_trace(false)
                     .effect_tap(&collector)
                     .build();
  std::vector<std::uint8_t> payload(std::max(c.payload, kHeaderBytes), 0x5a);
  const auto period = static_cast<co::time::Tick>(1e9 / c.rate);
  for (std::size_t k = 0; k < 2000; ++k) {
    const auto e = static_cast<EntityId>(k % c.entities);
    cluster->scheduler().schedule_at(
        static_cast<co::sim::SimTime>(k) * period,
        [&cluster, e, &payload] { cluster->submit(e, payload); });
  }
  cluster->scheduler().run_until(static_cast<co::sim::SimTime>(2000) * period);
  cluster->run_until_delivered(10 * co::time::kSecond);
  return time_codec(collector.broadcasts());
}

double per(double x, double base) { return base > 0 ? x / base : 0.0; }

}  // namespace

Report run_wire(const WireConfig& c, std::uint64_t seed, bool trace) {
  Report rep;
  rep.notes = machine_notes();
  rep.notes.push_back(
      std::string("spin policy: HostBuilder auto, ") +
      (std::thread::hardware_concurrency() >= c.shards + 1
           ? "busy-poll 100 us (cores >= shards + 1)"
           : "no busy-poll (cores < shards + 1)") +
      "; confirm_on_heard_all off");
  std::ostringstream wl;
  wl << "workload: open loop, " << c.entities << " entities / " << c.shards
     << " shards, " << c.rate << " submits/s, " << c.payload
     << " B payloads, no loss, window " << c.seconds << " s";
  rep.notes.push_back(wl.str());

  // Several fresh hosts per run, each measured for host_s. A host settles
  // into one confirmation rhythm for its lifetime and a stall (a kernel
  // drop recovered by a 25 ms retransmission) lands on one host, so every
  // end-to-end figure is the median over hosts. The per-layer figures pool
  // every host's window.
  const double setup_s = median_setup_s(c, c.setup_repeats);
  const int hosts = std::max(1, static_cast<int>(c.seconds / c.host_s + 0.5));
  const double host_s = c.seconds / hosts;
  // Samples per receiver and host, sized so the pooled latencies of a run
  // number kPooledSamples whatever the delivery rate.
  const std::size_t cap =
      kPooledSamples / (static_cast<std::size_t>(hosts) * c.entities);
  const std::size_t slack = static_cast<std::size_t>(hosts) * c.entities;
  std::vector<float> tap_pool = touched_pool(kPooledSamples + slack);
  std::vector<float> commit_pool =
      touched_pool(kPooledSamples / c.entities + slack);
  std::vector<float> submit_pool =
      touched_pool(kPooledSamples / c.entities + slack);
  std::vector<float> late_pool =
      touched_pool(kPooledSamples / c.entities + slack);
  LoadResult a;
  a.accepted.assign(c.entities, 0);
  std::vector<double> tap_p50, tap_p90, commit_p50, commit_p90, rates, cpus,
      pdus_per_submit, rss;
  for (int i = 0; i < hosts; ++i) {
    reset_peak_rss();
    LoadResult r = run_load(c, seed + static_cast<std::uint64_t>(i), host_s,
                            cap, nullptr);
    rss.push_back(peak_rss_mb());

    if (r.violation) {
      rep.fail("host " + std::to_string(i) + ": " + *r.violation);
      return rep;
    }
    const std::uint64_t accepted = std::accumulate(
        r.accepted.begin(), r.accepted.end(), std::uint64_t{0});
    if (accepted == 0) {
      rep.fail("no submit was accepted");
      return rep;
    }
    tap_p50.push_back(quantile(r.tap_ms, 0.5));
    tap_p90.push_back(quantile(r.tap_ms, 0.9));
    commit_p50.push_back(quantile(r.commit_ms, 0.5));
    commit_p90.push_back(quantile(r.commit_ms, 0.9));
    rates.push_back(r.deliveries_per_s);
    cpus.push_back(r.cpu_us_per_delivery);
    pdus_per_submit.push_back(
        static_cast<double>(r.totals.data_pdus_sent + r.totals.ctrl_pdus_sent +
                            r.totals.ret_pdus_sent +
                            r.totals.retransmissions_sent) /
        static_cast<double>(accepted));
    pool(a, r);
    append(tap_pool, r.tap_ms);
    append(commit_pool, r.commit_ms);
    append(submit_pool, r.submit_ns);
    append(late_pool, r.late_ms);
  }
  const std::uint64_t accepted =
      std::accumulate(a.accepted.begin(), a.accepted.end(), std::uint64_t{0});
  rep.attempted = accepted + a.queue_full + a.stopped;
  rep.failed = a.queue_full + a.stopped;

  const double subs = static_cast<double>(accepted);
  const double tap_p50_ms = median(tap_p50);
  const double rate = median(rates);
  const double late_p99 = pooled_quantile(late_pool, 0.99);
  std::ostringstream v;
  v << "validity: " << hosts << " hosts x " << host_s << " s, "
    << a.window_submits << " submits in the windows, generator late p99 "
    << late_p99 << " ms, mean in flight "
    << a.inflight_mean / static_cast<double>(hosts) << ", failed "
    << rep.failed << " of " << rep.attempted;
  rep.notes.push_back(v.str());

  if (!trace) {
    rep.add("setup_s", setup_s, "s");
    rep.add("tap_p50_ms", tap_p50_ms, "ms");
    rep.add("commit_p50_ms", median(commit_p50), "ms");
    rep.add("deliveries_per_s", rate, "1/s");
    rep.add("cpu_us_per_delivery", median(cpus), "us");
    rep.add("pdus_per_submit", median(pdus_per_submit), "count");
    rep.add("peak_rss_mb", median(rss), "MB");
    return rep;
  }

  // --- traced window: the same load with a streaming tracer attached -------
  RecordSink sink;
  co::obs::trace::TracerConfig tc;
  tc.overwrite_oldest = false;
  co::obs::trace::Tracer tracer(tc, &sink);
  LoadResult b =
      run_load(c, seed, c.trace_seconds, kPooledSamples / c.entities, &tracer);
  tracer.flush();
  if (b.violation) {
    rep.fail("traced window: " + *b.violation);
    return rep;
  }
  const Ledger led = build_ledger(sink, b.submits, b.deliveries, true);
  const double traced_subs = static_cast<double>(std::accumulate(
      b.accepted.begin(), b.accepted.end(), std::uint64_t{0}));
  const double bytes_per_dgram =
      per(static_cast<double>(led.wire_tx_bytes),
          static_cast<double>(led.wire_tx));
  const CodecCost codec = wire_codec_probe(c, seed);
  const double udp_ns = udp_ns_per_datagram(
      static_cast<std::size_t>(bytes_per_dgram + 0.5));
  // Overhead on the workload's headline figure, tap p50.
  const double overhead_pct =
      per(quantile(b.tap_ms, 0.5) - tap_p50_ms, tap_p50_ms) * 100.0;
  const double shard_cpu = a.shard_cpu.user_s + a.shard_cpu.sys_s;
  const double window_del = static_cast<double>(a.window_deliveries);

  rep.add("tail.tap_p90_ms", median(tap_p90), "ms");
  rep.add("tail.commit_p90_ms", median(commit_p90), "ms");
  rep.add("tail.tap_p99_ms", pooled_quantile(tap_pool, 0.99), "ms");
  rep.add("tail.commit_p99_ms", pooled_quantile(commit_pool, 0.99), "ms");
  rep.add("host.submit_ns.p50", pooled_quantile(submit_pool, 0.5), "ns");
  rep.add("host.submit_ns.p99", pooled_quantile(submit_pool, 0.99), "ns");
  rep.add("host.ring_wait_us.p50", led.p50_us[kRingWait], "us");
  rep.add("host.ring_wait_us.p99", led.p99_us[kRingWait], "us");
  rep.add("host.shard_cpu_us_per_delivery", per(shard_cpu * 1e6, window_del),
          "us");
  rep.add("host.shard_sys_share", per(a.shard_cpu.sys_s, shard_cpu), "share");
  rep.add("host.gen_cpu_us_per_submit",
          per(a.gen_cpu_s * 1e6, static_cast<double>(a.window_submits)), "us");
  rep.add("host.gen_late_p99_ms", late_p99, "ms");
  rep.add("host.gen_inflight_mean",
          a.inflight_mean / static_cast<double>(hosts), "count");
  rep.add("co.queue_wait_us.p50", led.p50_us[kQueueWait], "us");
  rep.add("co.queue_wait_us.p99", led.p99_us[kQueueWait], "us");
  rep.add("co.transit_us.p50", led.p50_us[kTransit], "us");
  rep.add("co.transit_us.p99", led.p99_us[kTransit], "us");
  rep.add("co.pack_wait_us.p50", led.p50_us[kPackWait], "us");
  rep.add("co.ack_wait_us.p50", led.p50_us[kAckWait], "us");
  rep.add("co.callback_us.p50", led.p50_us[kCallback], "us");
  rep.add("co.core_ns_per_msg",
          per(static_cast<double>(a.totals.processing_ns),
              static_cast<double>(a.totals.messages_processed)),
          "ns");
  rep.add("co.data_per_submit",
          static_cast<double>(a.totals.data_pdus_sent) / subs, "count");
  rep.add("co.ctrl_per_submit",
          static_cast<double>(a.totals.ctrl_pdus_sent) / subs, "count");
  rep.add("co.ret_per_submit",
          static_cast<double>(a.totals.ret_pdus_sent) / subs, "count");
  rep.add("co.rtx_per_submit",
          static_cast<double>(a.totals.retransmissions_sent) / subs, "count");
  rep.add("co.parked_per_delivery",
          per(static_cast<double>(a.totals.parked_out_of_order),
              static_cast<double>(a.totals.delivered_to_app)),
          "count");
  rep.add("co.f1_per_submit",
          static_cast<double>(a.totals.f1_detections) / subs, "count");
  rep.add("co.f2_per_submit",
          static_cast<double>(a.totals.f2_detections) / subs, "count");
  rep.add("co.encode_ns", codec.encode_ns, "ns");
  rep.add("co.decode_ns", codec.decode_ns, "ns");
  rep.add("transport.datagrams_per_submit",
          static_cast<double>(a.wire.datagrams_sent) / subs, "count");
  rep.add("transport.bytes_per_datagram", bytes_per_dgram, "B");
  rep.add("transport.udp_ns_per_datagram", udp_ns, "ns");
  rep.add("transport.send_buffer_drops",
          static_cast<double>(a.wire.send_buffer_drops), "count");
  rep.add("transport.decode_errors",
          static_cast<double>(a.wire.decode_errors), "count");
  const double fires = static_cast<double>(led.timer_fires[0] +
                                           led.timer_fires[1]);
  rep.add("driver.timer_fires_per_submit", per(fires, traced_subs), "count");
  rep.add("driver.defer_fires_per_submit",
          per(static_cast<double>(led.timer_fires[0]), traced_subs), "count");
  rep.add("driver.retransmit_fires_per_submit",
          per(static_cast<double>(led.timer_fires[1]), traced_subs), "count");
  rep.add("sim.core_share", 0.0, "share");
  rep.add("sim.raw_deliveries_per_s", 0.0, "1/s");
  rep.add("sim.raw_cpu_us_per_delivery", 0.0, "us");
  rep.add("sim.reference_ms", 0.0, "ms");
  rep.add("net.drops_per_submit",
          static_cast<double>(a.wire.datagrams_dropped_injected) / subs,
          "count");
  rep.add("obs.trace_overhead_pct", overhead_pct, "%");
  rep.add("obs.trace_records_dropped",
          static_cast<double>(tracer.dropped()), "count");
  for (std::size_t k = 0; k < kStageCount; ++k)
    rep.add(std::string("ledger.") + stage_name(k) + "_mean_us",
            led.mean_us[k], "us");
  rep.add("ledger.tap_mean_us", led.tap_mean_us, "us");
  rep.add("ledger.tap_residual_share", led.residual_share, "share");
  rep.add("ledger.coverage", led.coverage, "share");
  rep.add("ledger.cpu_residual_share",
          per(a.process_cpu_s - shard_cpu - a.gen_cpu_s, a.process_cpu_s),
          "share");
  rep.add("obs.trace_records", static_cast<double>(tracer.appended()),
          "count");
  return rep;
}

}  // namespace cobench
