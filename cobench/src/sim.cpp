// `sim_lossy`: the deterministic simulator through proto::ClusterBuilder.
//
// n=32 entities (the paper's Fig. 8 scale), window 8, 100 us links and 1%
// seeded loss. Every entity submits once per 200 us round at a seeded
// offset inside the round. One execution is fully determined by the seed,
// so the run repeats the same executions until --seconds have passed and
// reports the median calibrated wall-clock and CPU figures (see
// calibrated()); simulated-time figures and counts are the same in every
// repetition (the run checks that they are).
#include <algorithm>
#include <chrono>
#include <sstream>

#include "cobench/src/bench.h"
#include "cobench/src/ledger.h"
#include "cobench/src/probes.h"
#include "src/common/rng.h"
#include "src/driver/cluster.h"
#include "src/obs/trace/tracer.h"

namespace cobench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kExecutions = 16;

struct Submit {
  co::sim::SimTime at = 0;
  EntityId src = 0;
  std::uint64_t index = 0;
};

struct Execution {
  double wall_s = 0.0;
  double thread_cpu_s = 0.0;
  double process_cpu_s = 0.0;
  // The same two times, each slice scaled by the reference passes on either
  // side of it (calibrated()).
  double cal_wall_s = 0.0;
  double cal_process_cpu_s = 0.0;
  std::vector<double> reference_s;  // every reference pass
  std::uint64_t deliveries = 0;
  std::vector<double> tap_ms, commit_ms;  // simulated time
  co::proto::CoEntityStats totals;
  std::uint64_t net_drops = 0;
  std::array<std::uint64_t, co::proto::kTimerCount> pending_timers{};
  std::optional<std::string> violation;
  std::vector<DeliveryRec> deliveries_rec;  // traced execution only
};

/// Counts that must repeat exactly across executions of one seed.
std::vector<std::uint64_t> fingerprint(const Execution& x) {
  return {x.deliveries,
          x.totals.data_pdus_sent,
          x.totals.ctrl_pdus_sent,
          x.totals.ret_pdus_sent,
          x.totals.retransmissions_sent,
          x.totals.f1_detections,
          x.totals.f2_detections,
          x.net_drops};
}

/// One execution's inputs: every entity submits once per round at a
/// seeded offset; the same seed drives the network's loss pattern.
struct Inputs {
  std::uint64_t seed = 0;
  std::vector<Submit> schedule;  // sorted by time
  std::vector<std::uint8_t> filler;
};

Inputs make_inputs(const SimConfig& c, std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  co::Rng rng(seed);
  const auto round_ns = static_cast<co::sim::SimDuration>(c.round_us * 1e3);
  for (std::size_t r = 0; r < c.rounds; ++r)
    for (std::size_t e = 0; e < c.n; ++e)
      in.schedule.push_back(Submit{
          static_cast<co::sim::SimTime>(r) * round_ns +
              static_cast<co::sim::SimTime>(rng.next_below(
                  static_cast<std::uint64_t>(round_ns))),
          static_cast<EntityId>(e), r});
  std::stable_sort(in.schedule.begin(), in.schedule.end(),
                   [](const Submit& a, const Submit& b) {
                     return a.at < b.at;
                   });
  in.filler.resize(std::max(c.payload, kHeaderBytes));
  for (auto& b : in.filler) b = static_cast<std::uint8_t>(rng.next_below(256));
  return in;
}

co::proto::ClusterBuilder sim_builder(const SimConfig& c,
                                     std::uint64_t seed) {
  co::net::McConfig net;
  net.delay = co::net::DelayModel::fixed(
      static_cast<co::sim::SimDuration>(c.link_delay_us * 1e3));
  net.injected_loss = c.loss;
  net.seed = seed;
  // Ingress buffers large enough that the flow condition's buffer term
  // (minBUF / 2n) never undercuts the window W.
  net.buffer_capacity = 1u << 20;
  co::proto::ClusterBuilder builder(c.n);
  builder.window(c.window).net(net).record_trace(false);
  return builder;
}

Execution execute(const SimConfig& c, const Inputs& in, bool oracle,
                  co::obs::trace::Tracer* tracer,
                  co::driver::EffectTap* effects) {
  const std::vector<Submit>& schedule = in.schedule;
  const std::vector<std::uint8_t>& filler = in.filler;
  Execution x;
  co::proto::ClusterBuilder builder = sim_builder(c, in.seed);
  builder.record_trace(oracle);
  if (tracer != nullptr) builder.tracer(tracer);
  if (effects != nullptr) builder.effect_tap(effects);
  auto cluster = builder.build();

  co::proto::CoCluster* cl = cluster.get();
  for (const Submit& s : schedule) {
    cl->scheduler().schedule_at(s.at, [cl, s, &filler] {
      std::vector<std::uint8_t> data = filler;
      Header h;
      h.due_ns = h.call_ns = s.at;
      h.src = s.src;
      h.index = s.index;
      pack_header(h, data.data());
      cl->submit(s.src, std::move(data));
    });
  }

  // The run advances in slices of slice_us simulated time (about 0.1 s of
  // wall time each). A reference pass follows every slice, and each slice's
  // times are calibrated by the mean of the passes on either side of it, so
  // the calibration follows the machine's phase within an execution.
  // Slicing does not change the execution: the scheduler runs the same
  // events in the same order.
  x.reference_s.push_back(reference_cpu_s());
  const auto timed = [&x](auto&& step) {
    const double cpu0 = thread_cpu_s(), proc0 = process_cpu_s();
    const auto w0 = Clock::now();
    step();
    const double wall =
        std::chrono::duration<double>(Clock::now() - w0).count();
    const double proc = process_cpu_s() - proc0;
    x.thread_cpu_s += thread_cpu_s() - cpu0;
    x.wall_s += wall;
    x.process_cpu_s += proc;
    const double before = x.reference_s.back();
    x.reference_s.push_back(reference_cpu_s());
    const double ref = (before + x.reference_s.back()) / 2;
    x.cal_wall_s += calibrated(wall, ref);
    x.cal_process_cpu_s += calibrated(proc, ref);
  };
  co::sim::Scheduler& sched = cl->scheduler();
  const auto slice = static_cast<co::sim::SimDuration>(c.slice_us * 1e3);
  const co::sim::SimTime last = schedule.back().at;
  const co::sim::SimTime deadline = last + 10 * co::sim::kSecond;
  // all_delivered() holds vacuously before the first submit, so run past
  // the last submit before waiting for delivery.
  for (co::sim::SimTime t = slice; t < last; t += slice)
    timed([&sched, t] { sched.run_until(t); });
  timed([&sched, last] { sched.run_until(last); });
  bool done = false;
  while (!done && sched.now() <= deadline && !sched.idle())
    timed([&] {
      done = cl->run_until_delivered(std::min(sched.now() + slice, deadline));
    });
  done = done || cl->all_delivered();

  DeliveryChecker checker(c.n);
  for (std::size_t i = 0; i < c.n; ++i) {
    const auto at = static_cast<EntityId>(i);
    for (const co::proto::Delivery& d : cl->deliveries(at)) {
      ++x.deliveries;
      const auto h = unpack_header(d.data.data(), d.data.size());
      if (!h || h->src != d.key.src) {
        checker.on_delivery(at, d.key.src, ~std::uint64_t{0});
        continue;
      }
      checker.on_delivery(at, d.key.src, h->index);
      x.tap_ms.push_back(static_cast<double>(d.at - h->due_ns) / 1e6);
      if (at == d.key.src)
        x.commit_ms.push_back(static_cast<double>(d.at - h->due_ns) / 1e6);
      if (tracer != nullptr)
        x.deliveries_rec.push_back(DeliveryRec{at, d.key.src, h->index, d.at});
    }
  }
  x.violation = checker.verify(
      std::vector<std::uint64_t>(c.n, static_cast<std::uint64_t>(c.rounds)));
  if (!x.violation && !done)
    x.violation = "run did not deliver everything before the deadline";
  if (!x.violation && oracle) {
    if (const auto v = cl->check_co_service())
      x.violation = "check_co_service: " + v->to_string();
  }
  x.totals = cl->aggregate_stats();
  x.net_drops = cl->network().stats().dropped_injected;
  for (std::size_t i = 0; i < c.n; ++i)
    for (std::size_t t = 0; t < co::proto::kTimerCount; ++t)
      x.pending_timers[t] +=
          cl->entity(static_cast<EntityId>(i))
                  .timer_pending(static_cast<co::proto::TimerId>(t))
              ? 1
              : 0;
  return x;
}

double per(double x, double base) { return base > 0 ? x / base : 0.0; }

}  // namespace

Report run_sim(const SimConfig& c, std::uint64_t seed, bool trace) {
  Report rep;
  rep.notes = machine_notes();
  std::ostringstream wl;
  wl << "workload: simulator, n=" << c.n << ", window " << c.window << ", "
     << c.link_delay_us << " us links, " << c.loss * 100 << "% loss, "
     << c.n << " submits per " << c.round_us << " us round x " << c.rounds
     << " rounds, " << c.payload << " B payloads";
  rep.notes.push_back(wl.str());

  // Distinct executions: one seed's loss pattern moves the simulated
  // figures by tens of percent, so they are medians over kExecutions
  // executions whose inputs all derive from --seed.
  std::vector<Inputs> inputs;
  for (std::size_t k = 0; k < kExecutions; ++k)
    inputs.push_back(make_inputs(c, seed * kExecutions + k));
  const std::vector<Submit>& schedule = inputs.front().schedule;
  const double submits = static_cast<double>(schedule.size());
  rep.attempted = schedule.size() * kExecutions;

  // Set-up: building the cluster, timed on its own.
  std::vector<double> setup;
  for (int i = 0; i < c.setup_repeats; ++i) {
    const auto t0 = Clock::now();
    auto cluster = sim_builder(c, seed).build();
    setup.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }

  // Timed executions without the oracle: each distinct execution once, then
  // round again until --seconds have passed. A repeated execution must
  // reproduce its counts exactly.
  std::vector<Execution> first_pass;
  std::vector<double> rate, cpu, raw_rate, raw_cpu, refs, walls0, core_share,
      cpu_residual, rss;
  std::vector<double> tap_p50, tap_p90, commit_p50, commit_p90, pdus;
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i <= kExecutions ||
       std::chrono::duration<double>(Clock::now() - start).count() <
           c.seconds;
       ++i) {
    const std::size_t k = i % kExecutions;
    reset_peak_rss();
    Execution x = execute(c, inputs[k], false, nullptr, nullptr);
    rss.push_back(peak_rss_mb());
    if (x.violation) {
      rep.fail("execution " + std::to_string(k) + ": " + *x.violation);
      return rep;
    }
    if (k == 0) walls0.push_back(x.cal_wall_s);
    const auto deliveries = static_cast<double>(x.deliveries);
    raw_rate.push_back(per(deliveries, x.wall_s));
    raw_cpu.push_back(per(x.process_cpu_s * 1e6, deliveries));
    rate.push_back(per(deliveries, x.cal_wall_s));
    cpu.push_back(per(x.cal_process_cpu_s * 1e6, deliveries));
    refs.push_back(median(x.reference_s));
    core_share.push_back(
        per(static_cast<double>(x.totals.processing_ns) / 1e9, x.thread_cpu_s));
    cpu_residual.push_back(
        per(x.process_cpu_s - x.thread_cpu_s, x.process_cpu_s));
    if (i < kExecutions) {
      tap_p50.push_back(quantile(x.tap_ms, 0.5));
      tap_p90.push_back(quantile(x.tap_ms, 0.9));
      commit_p50.push_back(quantile(x.commit_ms, 0.5));
      commit_p90.push_back(quantile(x.commit_ms, 0.9));
      const co::proto::CoEntityStats& t = x.totals;
      pdus.push_back(static_cast<double>(t.data_pdus_sent + t.ctrl_pdus_sent +
                                         t.ret_pdus_sent +
                                         t.retransmissions_sent) /
                     submits);
      if (i > 0) x.tap_ms.clear(), x.commit_ms.clear();
      first_pass.push_back(std::move(x));
    } else if (fingerprint(x) != fingerprint(first_pass[k])) {
      rep.fail("execution " + std::to_string(k) +
               " produced different counts when repeated (nondeterminism)");
      return rep;
    }
  }

  // Verify pass: the causality oracle on the first verify_rounds rounds of
  // the first execution's inputs (check_co_service is quadratic in the
  // delivery log).
  Inputs prefix = inputs.front();
  std::erase_if(prefix.schedule, [&c](const Submit& s) {
    return s.index >= c.verify_rounds;
  });
  SimConfig vc = c;
  vc.rounds = std::min(c.rounds, c.verify_rounds);
  const Execution verified = execute(vc, prefix, true, nullptr, nullptr);
  if (verified.violation) {
    rep.fail("oracle pass: " + *verified.violation);
    return rep;
  }

  Execution& first = first_pass.front();
  const co::proto::CoEntityStats& t = first.totals;
  std::ostringstream v;
  v << "validity: " << kExecutions << " distinct executions of "
    << first.deliveries << " deliveries, " << rate.size()
    << " timed in all; oracle pass over " << vc.rounds << " rounds clean";
  rep.notes.push_back(v.str());
  std::ostringstream cal;
  cal << "calibration: reference pass median " << median(refs) * 1e3
      << " ms (nominal " << kReferenceNominalS * 1e3
      << " ms); uncalibrated CPU per delivery " << median(raw_cpu) << " us";
  rep.notes.push_back(cal.str());

  if (!trace) {
    rep.add("setup_s", median(setup), "s");
    rep.add("tap_p50_ms", median(tap_p50), "ms");
    rep.add("commit_p50_ms", median(commit_p50), "ms");
    rep.add("deliveries_per_s", median(rate), "1/s");
    rep.add("cpu_us_per_delivery", median(cpu), "us");
    rep.add("pdus_per_submit", median(pdus), "count");
    rep.add("peak_rss_mb", median(rss), "MB");
    return rep;
  }

  // --- traced execution ------------------------------------------------------
  RecordSink sink;
  co::obs::trace::TracerConfig tc;
  tc.overwrite_oldest = false;
  co::obs::trace::Tracer tracer(tc, &sink);
  EffectCollector effects;
  const Execution traced =
      execute(c, inputs.front(), false, &tracer, &effects);
  tracer.flush();
  if (traced.violation) {
    rep.fail("traced execution: " + *traced.violation);
    return rep;
  }
  std::vector<std::vector<SubmitTimes>> submit_times(c.n);
  for (auto& per_entity : submit_times) per_entity.resize(c.rounds);
  for (const Submit& s : schedule)
    submit_times[static_cast<std::size_t>(s.src)][s.index] =
        SubmitTimes{s.at, s.at, s.at};
  const Ledger led =
      build_ledger(sink, submit_times, traced.deliveries_rec, false);
  const CodecCost codec = time_codec(effects.broadcasts());
  std::array<double, co::proto::kTimerCount> fires{};
  for (std::size_t k = 0; k < co::proto::kTimerCount; ++k)
    fires[k] = static_cast<double>(effects.arms[k] - effects.cancels[k] -
                                   traced.pending_timers[k]);
  // Untraced runs of the same inputs, calibrated like the traced one.
  const double wall = median(walls0);

  const double zero = 0.0;
  rep.add("tail.tap_p90_ms", median(tap_p90), "ms");
  rep.add("tail.commit_p90_ms", median(commit_p90), "ms");
  rep.add("tail.tap_p99_ms", quantile(first.tap_ms, 0.99), "ms");
  rep.add("tail.commit_p99_ms", quantile(first.commit_ms, 0.99), "ms");
  for (const char* name :
       {"host.submit_ns.p50", "host.submit_ns.p99"})
    rep.add(name, zero, "ns");
  rep.add("host.ring_wait_us.p50", zero, "us");
  rep.add("host.ring_wait_us.p99", zero, "us");
  rep.add("host.shard_cpu_us_per_delivery", zero, "us");
  rep.add("host.shard_sys_share", zero, "share");
  rep.add("host.gen_cpu_us_per_submit", zero, "us");
  rep.add("host.gen_late_p99_ms", zero, "ms");
  rep.add("host.gen_inflight_mean", zero, "count");
  rep.add("co.queue_wait_us.p50", led.p50_us[kQueueWait], "us");
  rep.add("co.queue_wait_us.p99", led.p99_us[kQueueWait], "us");
  rep.add("co.transit_us.p50", led.p50_us[kTransit], "us");
  rep.add("co.transit_us.p99", led.p99_us[kTransit], "us");
  rep.add("co.pack_wait_us.p50", led.p50_us[kPackWait], "us");
  rep.add("co.ack_wait_us.p50", led.p50_us[kAckWait], "us");
  rep.add("co.callback_us.p50", led.p50_us[kCallback], "us");
  rep.add("co.core_ns_per_msg",
          per(static_cast<double>(t.processing_ns),
              static_cast<double>(t.messages_processed)),
          "ns");
  rep.add("co.data_per_submit", static_cast<double>(t.data_pdus_sent) / submits,
          "count");
  rep.add("co.ctrl_per_submit", static_cast<double>(t.ctrl_pdus_sent) / submits,
          "count");
  rep.add("co.ret_per_submit", static_cast<double>(t.ret_pdus_sent) / submits,
          "count");
  rep.add("co.rtx_per_submit",
          static_cast<double>(t.retransmissions_sent) / submits, "count");
  rep.add("co.parked_per_delivery",
          per(static_cast<double>(t.parked_out_of_order),
              static_cast<double>(t.delivered_to_app)),
          "count");
  rep.add("co.f1_per_submit", static_cast<double>(t.f1_detections) / submits,
          "count");
  rep.add("co.f2_per_submit", static_cast<double>(t.f2_detections) / submits,
          "count");
  rep.add("co.encode_ns", codec.encode_ns, "ns");
  rep.add("co.decode_ns", codec.decode_ns, "ns");
  rep.add("transport.datagrams_per_submit", zero, "count");
  rep.add("transport.bytes_per_datagram", zero, "B");
  rep.add("transport.udp_ns_per_datagram", zero, "ns");
  rep.add("transport.send_buffer_drops", zero, "count");
  rep.add("transport.decode_errors", zero, "count");
  rep.add("driver.timer_fires_per_submit", (fires[0] + fires[1]) / submits,
          "count");
  rep.add("driver.defer_fires_per_submit", fires[0] / submits, "count");
  rep.add("driver.retransmit_fires_per_submit", fires[1] / submits, "count");
  rep.add("sim.core_share", median(core_share), "share");
  rep.add("sim.raw_deliveries_per_s", median(raw_rate), "1/s");
  rep.add("sim.raw_cpu_us_per_delivery", median(raw_cpu), "us");
  rep.add("sim.reference_ms", median(refs) * 1e3, "ms");
  rep.add("net.drops_per_submit",
          static_cast<double>(first.net_drops) / submits,
          "count");
  rep.add("obs.trace_overhead_pct",
          per(traced.cal_wall_s - wall, wall) * 100.0,
          "%");
  rep.add("obs.trace_records_dropped",
          static_cast<double>(tracer.dropped()), "count");
  for (std::size_t k = 0; k < kStageCount; ++k)
    rep.add(std::string("ledger.") + stage_name(k) + "_mean_us",
            led.mean_us[k], "us");
  rep.add("ledger.tap_mean_us", led.tap_mean_us, "us");
  rep.add("ledger.tap_residual_share", led.residual_share, "share");
  rep.add("ledger.coverage", led.coverage, "share");
  rep.add("ledger.cpu_residual_share", median(cpu_residual), "share");
  rep.add("obs.trace_records", static_cast<double>(tracer.appended()),
          "count");
  return rep;
}

}  // namespace cobench
