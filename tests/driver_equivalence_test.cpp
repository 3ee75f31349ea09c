// Driver equivalence: the SAME input timeline produces the byte-identical
// effect stream whether the one driver::Driver runs over a scheduler-backed
// Env (timers as discrete-event scheduler events, as in the simulated
// CoCluster) or over a TimerWheel-backed Env (timers popped from a wheel by
// the caller's loop, as in the UDP host) — the two runtimes differ only in
// where an armed timer lives.
//
// Timelines are generated from seeds: pseudorandom arrivals (with injected
// gaps, so RET/retransmit-timer machinery engages), submits, and the timer
// fires they provoke. Op times are multiples of a step that is coprime to
// both timeout periods, so no two events ever collide on one tick and the
// interleaving is unambiguous on both sides.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/co/core.h"
#include "src/driver/driver.h"
#include "src/driver/timer_wheel.h"
#include "src/fuzz/effect_log.h"
#include "src/sim/scheduler.h"

namespace co::proto {
namespace {

constexpr BufUnits kBuf = 4096;

CoConfig config3() {
  CoConfig c;
  c.n = 3;
  c.window = 8;
  c.defer_timeout = 2 * time::kMillisecond;
  c.retransmit_timeout = 4 * time::kMillisecond;
  c.assumed_peer_buffer = kBuf;
  return c;
}

struct Op {
  time::Tick at = 0;
  bool is_submit = false;
  EntityId from = kNoEntity;  // arrival only
  CoPdu pdu;                  // arrival only
  std::vector<std::uint8_t> data;  // submit only
};

/// Seeded op timeline for entity 0 of a 3-cluster: peers 1 and 2 send data
/// PDUs in seq order with occasional skips (gaps -> F(1) -> RETs), plus a
/// few own submits. ACK vectors grow monotonically per peer.
std::vector<Op> make_timeline(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Op> ops;
  SeqNo next_seq[3] = {1, 1, 1};
  SeqNo acked[3][3] = {{1, 1, 1}, {1, 1, 1}, {1, 1, 1}};
  // 977'777 ns is odd and shares no factor with the 2 ms / 4 ms timeouts,
  // so op times never coincide with each other or with timer deadlines.
  time::Tick t = 977'777;
  const std::size_t n_ops = 40 + rng.next_below(30);
  for (std::size_t i = 0; i < n_ops; ++i) {
    t += 977'777 * (1 + static_cast<time::Tick>(rng.next_below(4)));
    Op op;
    op.at = t;
    if (rng.next_bool(0.15)) {
      op.is_submit = true;
      op.data = {static_cast<std::uint8_t>(rng.next_below(256))};
    } else {
      const EntityId from = 1 + static_cast<EntityId>(rng.next_below(2));
      if (rng.next_bool(0.2)) ++next_seq[from];  // drop one: inject a gap
      CoPdu p;
      p.cid = 1;
      p.src = from;
      p.seq = next_seq[from]++;
      // The peer's REQ vector: own column tracks its seq, others creep up.
      acked[from][from] = p.seq + 1;
      for (int k = 0; k < 3; ++k)
        if (k != from && rng.next_bool(0.3)) ++acked[from][k];
      p.ack = {acked[from][0], acked[from][1], acked[from][2]};
      p.buf = kBuf;
      p.data = {static_cast<std::uint8_t>(i)};
      op.from = from;
      op.pdu = std::move(p);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// The medium is out of scope on both sides: broadcasts and deliveries are
/// dropped, only the timer store differs.
class NullMediumEnv : public driver::Env {
 public:
  void broadcast(Message&&) override {}
  void deliver(const CoPdu&) override {}
  BufUnits free_buffer() override { return kBuf; }
};

/// Scheduler side: ops become scheduler events; each timer is one
/// TimerHandle slot whose event calls Driver::fire.
class SchedulerEnv final : public NullMediumEnv {
 public:
  explicit SchedulerEnv(sim::Scheduler& sched) : sched_(sched) {}
  void arm(TimerId timer, time::Deadline deadline) override {
    timers_[static_cast<std::size_t>(timer)] =
        sched_.schedule_at(deadline, [this, timer] {
          driver->fire(timer, sched_.now());
        });
  }
  void cancel(TimerId timer) override {
    timers_[static_cast<std::size_t>(timer)].cancel();
  }
  driver::Driver* driver = nullptr;  // set once the driver exists

 private:
  sim::Scheduler& sched_;
  sim::TimerHandle timers_[kTimerCount];
};

/// Wheel side: timers live in a TimerWheel the op loop pops.
class WheelEnv final : public NullMediumEnv {
 public:
  void arm(TimerId timer, time::Deadline deadline) override {
    wheel.arm(timer, deadline);
  }
  void cancel(TimerId timer) override { wheel.cancel(timer); }
  driver::TimerWheel wheel;
};

void run_scheduler_side(const std::vector<Op>& ops, time::Tick horizon,
                        fuzz::EffectRecorder& tap) {
  sim::Scheduler sched;
  CoCore core(0, config3());
  SchedulerEnv env(sched);
  driver::Driver driver(core, env, &tap);
  env.driver = &driver;
  for (const Op& op : ops) {
    sched.schedule_at(op.at, [&driver, &sched, &op] {
      if (op.is_submit)
        driver.submit(op.data, kEveryone, sched.now());
      else
        driver.on_message(op.from, Message(op.pdu), sched.now());
    });
  }
  sched.run_until(horizon);
}

void run_wheel_side(const std::vector<Op>& ops, time::Tick horizon,
                    fuzz::EffectRecorder& tap) {
  CoCore core(0, config3());
  WheelEnv env;
  driver::Driver driver(core, env, &tap);
  auto fire_due_before = [&](time::Tick limit) {
    while (const auto next = env.wheel.next_deadline()) {
      if (*next > limit) break;
      const time::Tick now = *next;
      while (const auto due = env.wheel.pop_due(now)) driver.fire(*due, now);
    }
  };

  for (const Op& op : ops) {
    fire_due_before(op.at);  // no event-time collisions by construction
    if (op.is_submit)
      driver.submit(op.data, kEveryone, op.at);
    else
      driver.on_message(op.from, Message(op.pdu), op.at);
  }
  fire_due_before(horizon);
}

TEST(DriverEquivalence, SameSeedsSameEffectDigests) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const std::vector<Op> ops = make_timeline(seed);
    const time::Tick horizon = ops.back().at + 50 * time::kMillisecond;

    fuzz::EffectRecorder sched_tap(/*sample_limit=*/0);
    run_scheduler_side(ops, horizon, sched_tap);
    fuzz::EffectRecorder wheel_tap(/*sample_limit=*/0);
    run_wheel_side(ops, horizon, wheel_tap);

    EXPECT_GT(sched_tap.effects(), 0u) << "seed=" << seed;
    EXPECT_EQ(sched_tap.effects(), wheel_tap.effects()) << "seed=" << seed;
    EXPECT_EQ(sched_tap.digest(), wheel_tap.digest()) << "seed=" << seed;
  }
}

TEST(DriverEquivalence, TimelinesExerciseTimersAndRets) {
  // Guard against the generator silently degenerating: across the seed
  // sweep the streams must contain timer arms AND RET broadcasts (gap
  // machinery), otherwise the equivalence above proves less than it claims.
  std::size_t rets = 0, arms = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const std::vector<Op> ops = make_timeline(seed);
    const time::Tick horizon = ops.back().at + 50 * time::kMillisecond;
    fuzz::EffectRecorder tap(/*sample_limit=*/4096);
    run_scheduler_side(ops, horizon, tap);
    for (const std::string& line : tap.sample()) {
      if (line.find("RET") != std::string::npos) ++rets;
      if (line.find("arm") != std::string::npos) ++arms;
    }
  }
  EXPECT_GT(rets, 0u);
  EXPECT_GT(arms, 0u);
}

}  // namespace
}  // namespace co::proto
