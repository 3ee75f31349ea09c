// The benchmark's own tests: the delivery checker must reject reordered
// and missing deliveries, the stage ledger must telescope, and every
// workload must complete a tiny run in both modes. Exit status 0 iff all
// pass.
#include <iostream>
#include <string>

#include "cobench/src/bench.h"
#include "cobench/src/ledger.h"
#include "src/obs/trace/events.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++failures;                                                     \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK(" #cond    \
                << ") failed\n";                                      \
    }                                                                 \
  } while (0)

using cobench::DeliveryChecker;

void checker_accepts_fifo_and_complete() {
  DeliveryChecker c(2);
  for (std::uint64_t k = 0; k < 3; ++k) {
    c.on_delivery(0, 1, k);
    c.on_delivery(1, 1, k);
  }
  c.on_delivery(0, 0, 0);
  c.on_delivery(1, 0, 0);
  CHECK(!c.verify({1, 3}).has_value());
}

void checker_rejects_reordered_delivery() {
  DeliveryChecker c(2);
  c.on_delivery(0, 1, 1);
  c.on_delivery(0, 1, 0);
  const auto v = c.verify({0, 2});
  CHECK(v.has_value());
  CHECK(v && v->find("FIFO") != std::string::npos);
}

void checker_rejects_gap() {
  DeliveryChecker c(2);
  c.on_delivery(1, 0, 0);
  c.on_delivery(1, 0, 2);
  CHECK(c.verify({3, 0}).has_value());
}

void checker_rejects_duplicate() {
  DeliveryChecker c(2);
  c.on_delivery(1, 0, 0);
  c.on_delivery(1, 0, 0);
  CHECK(c.verify({1, 0}).has_value());
}

void checker_rejects_missing_tail() {
  DeliveryChecker c(2);
  c.on_delivery(0, 0, 0);
  c.on_delivery(0, 0, 1);
  c.on_delivery(1, 0, 0);
  c.on_delivery(1, 0, 1);
  CHECK(!c.verify({2, 0}).has_value());
  const auto v = c.verify({3, 0});  // submit #2 never delivered
  CHECK(v.has_value());
  CHECK(v && v->find("before the drain deadline") != std::string::npos);
}

void ledger_stages_telescope() {
  using co::obs::trace::EventId;
  using co::obs::trace::Record;
  const auto rec = [](EventId e, std::int64_t at, int actor, int origin,
                      std::uint64_t seq, std::uint32_t arg = 0) {
    Record r;
    r.event = static_cast<std::uint16_t>(e);
    r.at = at;
    r.actor = actor;
    r.origin = origin;
    r.seq = seq;
    r.arg = arg;
    return r;
  };
  const std::uint64_t none = ~std::uint64_t{0};
  // Entity 0's submit #0 is due at 0, called at 1000, returns at 1500,
  // drained at 4000 and sent as seq 7 at 6000; receiver 1 accepts at
  // 10000, packs at 20000, delivers at 30000; the callback runs at 31000.
  std::vector<Record> chunk = {
      rec(EventId::kSubmit, 4000, 0, -1, none),
      rec(EventId::kSend, 5000, 0, 0, 6, 0),  // ack-only: not a submit
      rec(EventId::kSend, 6000, 0, 0, 7, 1),
      rec(EventId::kAccept, 10000, 1, 0, 7),
      rec(EventId::kPack, 20000, 1, 0, 7),
      rec(EventId::kDeliver, 30000, 1, 0, 7),
      rec(EventId::kTimerFire, 30000, 1, -1, none, 0),
      rec(EventId::kWireTx, 6000, 0, -1, none, 120),
  };
  cobench::RecordSink sink;
  sink.on_records(0, chunk.data(), chunk.size(), 0);
  std::vector<std::vector<cobench::SubmitTimes>> submits(2);
  submits[0].push_back(cobench::SubmitTimes{0, 1000, 1500});
  std::vector<cobench::DeliveryRec> deliveries = {
      cobench::DeliveryRec{1, 0, 0, 31000}};
  const cobench::Ledger full =
      cobench::build_ledger(sink, submits, deliveries, true);
  CHECK(full.coverage == 1.0);
  CHECK(full.tap_mean_us == 31.0);
  CHECK(full.stage_sum_us == 31.0);
  CHECK(full.residual_share == 0.0);
  CHECK(full.mean_us[cobench::kRingWait] == 2.5);
  CHECK(full.mean_us[cobench::kQueueWait] == 2.0);
  CHECK(full.mean_us[cobench::kTransit] == 4.0);
  CHECK(full.mean_us[cobench::kAckWait] == 10.0);
  CHECK(full.timer_fires[0] == 1);
  CHECK(full.wire_tx_bytes == 120);

  // A delivery whose chain lacks its receiver stamps counts in the tap but
  // not in the stages: the residual shows the gap.
  deliveries.push_back(cobench::DeliveryRec{0, 0, 0, 41000});
  const cobench::Ledger partial =
      cobench::build_ledger(sink, submits, deliveries, true);
  CHECK(partial.coverage == 0.5);
  CHECK(partial.residual_share > 0.0);
}

void check_run(const char* name, const cobench::Report& rep,
               const char* headline) {
  if (!rep.correct)
    std::cerr << name << ": " << rep.failure << "\n";
  CHECK(rep.correct);
  CHECK(rep.attempted > 0);
  CHECK(rep.failed == 0);
  bool found = false;
  for (const auto& m : rep.metrics)
    if (m.name == headline) found = m.value > 0;
  if (!found) std::cerr << name << ": " << headline << " missing or zero\n";
  CHECK(found);
}

void smoke_wire() {
  cobench::WireConfig c;
  c.seconds = 0.2;
  c.trace_seconds = 0.1;
  c.host_s = 0.1;
  c.warmup_s = 0.05;
  c.setup_repeats = 1;
  c.rate = 2000;
  check_run("steady", cobench::run_wire(c, 7, false), "tap_p50_ms");
  check_run("steady traced", cobench::run_wire(c, 7, true),
            "co.transit_us.p50");
}

void smoke_sim() {
  cobench::SimConfig c;
  c.n = 8;
  c.rounds = 10;
  c.seconds = 0.0;
  check_run("sim_lossy", cobench::run_sim(c, 7, false), "tap_p50_ms");
  check_run("sim_lossy traced", cobench::run_sim(c, 7, true),
            "co.pack_wait_us.p50");
}

}  // namespace

int main() {
  checker_accepts_fifo_and_complete();
  checker_rejects_reordered_delivery();
  checker_rejects_gap();
  checker_rejects_duplicate();
  checker_rejects_missing_tail();
  ledger_stages_telescope();
  smoke_wire();
  smoke_sim();
  if (failures == 0) std::cout << "cobench_selftest: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
