// Perfetto exporter + end-to-end tracing: the emitted trace_event JSON
// must parse, carry one named track per entity and per-PDU flow arrows,
// and the fuzz flight recorder must reproduce its tail on replay.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/driver/cluster.h"
#include "src/fuzz/runner.h"
#include "src/fuzz/scenario.h"
#include "src/obs/trace/events.h"
#include "src/obs/trace/perfetto.h"
#include "src/obs/trace/tracer.h"

namespace co::obs::trace {
namespace {

Record make_record(time::Tick at, EventId event, EntityId actor,
                   EntityId origin, std::uint64_t seq,
                   std::uint32_t arg = 0) {
  Record r;
  r.at = at;
  r.seq = seq;
  r.origin = origin;
  r.actor = actor;
  r.event = static_cast<std::uint16_t>(event);
  r.stream = 0;
  r.arg = arg;
  return r;
}

Json export_json(const std::vector<Record>& records,
                       const PerfettoOptions& opts = {}) {
  std::ostringstream os;
  write_perfetto_json(os, records, opts);
  return Json::parse(os.str());
}

std::map<std::string, int> phase_counts(const Json& doc) {
  std::map<std::string, int> counts;
  for (const auto& e : doc.at("traceEvents").as_array())
    ++counts[e.at("ph").as_string()];
  return counts;
}

// ---------------------------------------------------------------------------
// Synthetic exports.

TEST(PerfettoExport, EmitsTracksSlicesAndFlowArrows) {
  // E0 sends #1; E1 parks then accepts, packs, acks, delivers it.
  const std::vector<Record> records = {
      make_record(1000, EventId::kSend, 0, 0, 1, 1),
      make_record(2000, EventId::kPark, 1, 0, 1),
      make_record(3000, EventId::kAccept, 1, 0, 1),
      make_record(4000, EventId::kPack, 1, 0, 1),
      make_record(5000, EventId::kAck, 1, 0, 1),
      make_record(5000, EventId::kDeliver, 1, 0, 1),
      make_record(6000, EventId::kTimerFire, 0, kNoEntity, kSeqNone, 1),
  };
  const Json doc = export_json(records);
  const auto counts = phase_counts(doc);

  EXPECT_EQ(counts.at("X"), 6);  // every protocol record is a slice
  EXPECT_EQ(counts.at("i"), 1);  // the timer instant
  EXPECT_EQ(counts.at("s"), 1);  // one flow: E0#1
  EXPECT_EQ(counts.at("t"), 4);  // park, accept, pack, ack intermediates
  EXPECT_EQ(counts.at("f"), 1);  // finishing at the deliver milestone

  // Track metadata: process plus both entity threads, named "E<n>".
  std::vector<std::string> thread_names;
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "M" &&
        e.at("name").as_string() == "thread_name")
      thread_names.push_back(e.at("args").at("name").as_string());
  }
  ASSERT_EQ(thread_names.size(), 2u);
  EXPECT_EQ(thread_names[0], "E0");
  EXPECT_EQ(thread_names[1], "E1");

  // Timestamps are µs with ns precision: 1000 ns -> 1.000 µs.
  bool found_send = false;
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "X" &&
        e.at("name").as_string() == "send E0#1") {
      EXPECT_DOUBLE_EQ(e.at("ts").as_double(), 1.0);
      EXPECT_EQ(e.at("args").at("origin").as_u64(), 0u);
      EXPECT_EQ(e.at("args").at("seq").as_u64(), 1u);
      found_send = true;
    }
  }
  EXPECT_TRUE(found_send);
}

TEST(PerfettoExport, NoFlowsOptionSuppressesArrows) {
  const std::vector<Record> records = {
      make_record(1000, EventId::kSend, 0, 0, 1, 1),
      make_record(2000, EventId::kDeliver, 1, 0, 1),
  };
  PerfettoOptions opts;
  opts.flows = false;
  const auto counts = phase_counts(export_json(records, opts));
  EXPECT_EQ(counts.count("s"), 0u);
  EXPECT_EQ(counts.count("t"), 0u);
  EXPECT_EQ(counts.count("f"), 0u);
}

TEST(PerfettoExport, LocalOnlyPduGetsNoFlow) {
  // A PDU that never reaches a remote milestone (only origin-side records)
  // must not produce a dangling flow arrow.
  const std::vector<Record> records = {
      make_record(1000, EventId::kSend, 0, 0, 1, 1),
      make_record(2000, EventId::kAck, 0, 0, 1),
  };
  const auto counts = phase_counts(export_json(records));
  EXPECT_EQ(counts.count("s"), 0u);
  EXPECT_EQ(counts.count("f"), 0u);
}

TEST(PerfettoSummary, CountsEventsActorsAndPdus) {
  const std::vector<Record> records = {
      make_record(0, EventId::kSend, 0, 0, 1, 1),
      make_record(1000000, EventId::kDeliver, 1, 0, 1),
      make_record(2000000, EventId::kDeliver, 2, 0, 1),
  };
  std::ostringstream os;
  write_trace_summary(os, records, 5);
  const std::string text = os.str();
  EXPECT_NE(text.find("records: 3"), std::string::npos);
  EXPECT_NE(text.find("dropped/overwritten: 5"), std::string::npos);
  EXPECT_NE(text.find("pdus traced: 1"), std::string::npos);
  EXPECT_NE(text.find("deliver: 2"), std::string::npos);
  EXPECT_NE(text.find("E1: 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: a 6-entity simulated cluster traced through ClusterOptions.

TEST(TraceIntegration, SixEntityClusterExportsTracksAndFlows) {
  TracerConfig config;
  config.ring_capacity = 1 << 14;
  Tracer tracer(config);

  auto cluster = proto::ClusterBuilder(6).window(8).tracer(&tracer).build();
  for (EntityId e = 0; e < 6; ++e)
    cluster->submit_text(e, "m" + std::to_string(e));
  ASSERT_TRUE(cluster->run_until_delivered(1000 * sim::kMillisecond));

  const auto records = tracer.snapshot();
  ASSERT_FALSE(records.empty());

  const Json doc = export_json(records);
  const auto counts = phase_counts(doc);

  // One named track per entity.
  std::vector<std::string> thread_names;
  for (const auto& e : doc.at("traceEvents").as_array())
    if (e.at("ph").as_string() == "M" &&
        e.at("name").as_string() == "thread_name")
      thread_names.push_back(e.at("args").at("name").as_string());
  ASSERT_EQ(thread_names.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_EQ(thread_names[i], "E" + std::to_string(i));

  // Every PDU that reached a remote milestone gets one flow (data PDUs
  // plus the ack-only confirmations), so at least the 6 data flows exist
  // and every started flow finishes.
  EXPECT_GE(counts.at("s"), 6);
  EXPECT_EQ(counts.at("f"), counts.at("s"));
  EXPECT_GT(counts.at("X"), 60);

  // The six data-PDU flows ("E<n>#1") are all among them.
  std::size_t data_flows = 0;
  for (const auto& e : doc.at("traceEvents").as_array())
    if (e.at("ph").as_string() == "s" &&
        e.at("name").as_string().ends_with("#1"))
      ++data_flows;
  EXPECT_EQ(data_flows, 6u);

  // Every send is on its origin's track (tid == origin).
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X") continue;
    const std::string& name = e.at("name").as_string();
    if (name.rfind("send ", 0) == 0) {
      EXPECT_EQ(e.at("tid").as_u64(), e.at("args").at("origin").as_u64());
    }
  }
}

// ---------------------------------------------------------------------------
// Flight recorder: a forced oracle violation leaves a deterministic tail.

TEST(FlightRecorder, ForcedViolationTailIsMarkedAndReplaysIdentically) {
  fuzz::RunOptions options;
  options.mutation = proto::Mutation::kNoCausalGate;

  // Find the first seed the mutated protocol fails on (the fuzz suite
  // guarantees one exists quickly; seed 3 at the time of writing).
  std::optional<std::uint64_t> failing;
  fuzz::RunReport first;
  for (std::uint64_t seed = 1; seed <= 20 && !failing; ++seed) {
    const auto scenario = fuzz::Scenario::generate(seed);
    fuzz::RunReport r = fuzz::run_scenario(scenario, options);
    if (r.failed) {
      failing = seed;
      first = std::move(r);
    }
  }
  ASSERT_TRUE(failing.has_value())
      << "mutation kNoCausalGate never tripped an oracle in 20 seeds";

  // The tail exists, and its last record is the kViolation marker.
  ASSERT_FALSE(first.flight_tail.empty());
  EXPECT_EQ(static_cast<EventId>(first.flight_tail.back().event),
            EventId::kViolation);

  // Replay: same scenario, same tail, byte for byte.
  const auto scenario = fuzz::Scenario::generate(*failing);
  const fuzz::RunReport second = fuzz::run_scenario(scenario, options);
  ASSERT_TRUE(second.failed);
  ASSERT_EQ(second.flight_tail.size(), first.flight_tail.size());
  EXPECT_EQ(std::memcmp(second.flight_tail.data(), first.flight_tail.data(),
                        first.flight_tail.size() * sizeof(Record)),
            0);
  EXPECT_EQ(second.flight_dropped, first.flight_dropped);
}

TEST(FlightRecorder, CleanRunCarriesNoTail) {
  const auto scenario = fuzz::Scenario::generate(1);
  const fuzz::RunReport r = fuzz::run_scenario(scenario, fuzz::RunOptions{});
  ASSERT_FALSE(r.failed) << r.violation_detail;
  EXPECT_TRUE(r.flight_tail.empty());
}

}  // namespace
}  // namespace co::obs::trace
