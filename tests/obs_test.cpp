// Tests: the protocol introspection layer (src/obs) — metrics registry,
// exporters, PDU lifecycle spans, and the zero-perturbation guarantee.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/driver/cluster.h"
#include "src/fuzz/counterexample.h"
#include "src/fuzz/runner.h"
#include "src/fuzz/scenario.h"
#include "src/harness/experiment.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/observe.h"
#include "src/obs/spans.h"
#include "src/obs/trace/digest.h"
#include "src/obs/trace/tracer.h"

namespace co {
namespace {

using obs::Histogram;
using obs::Labels;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesAndCallbacks) {
  MetricsRegistry reg;
  auto* c = reg.counter("co_things_total", {{"entity", "E0"}}, "things");
  auto* g = reg.gauge("co_depth");
  double source = 7.0;
  reg.gauge_fn("co_sampled", {}, [&source] { return source; });
  c->inc();
  c->inc(4);
  g->set(2.5);
  source = 9.0;  // callbacks must be read at snapshot time, not registration

  const MetricsSnapshot snap = reg.snapshot(123);
  EXPECT_EQ(snap.at, 123);
  EXPECT_EQ(reg.family_count(), 3u);
  EXPECT_EQ(reg.series_count(), 3u);
  EXPECT_EQ(snap.value_or("co_things_total", {{"entity", "E0"}}), 5.0);
  EXPECT_EQ(snap.value_or("co_depth"), 2.5);
  EXPECT_EQ(snap.value_or("co_sampled"), 9.0);
  EXPECT_EQ(snap.value_or("co_absent", {}, -1.0), -1.0);
  EXPECT_EQ(reg.help("co_things_total"), "things");
}

TEST(MetricsRegistry, LabelOrderIsCanonicalized) {
  MetricsRegistry reg;
  reg.counter("co_x", {{"b", "2"}, {"a", "1"}});
  const MetricsSnapshot snap = reg.snapshot(0);
  // Lookup succeeds regardless of the label order the caller uses.
  EXPECT_NE(snap.find("co_x", {{"a", "1"}, {"b", "2"}}), nullptr);
  EXPECT_NE(snap.find("co_x", {{"b", "2"}, {"a", "1"}}), nullptr);
}

TEST(MetricsRegistry, RejectsBadRegistrations) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter("0bad"), std::logic_error);
  EXPECT_THROW(reg.counter("co_x", {{"le", "1"}}), std::logic_error);
  reg.counter("co_dup", {{"entity", "E0"}});
  EXPECT_THROW(reg.counter("co_dup", {{"entity", "E0"}}), std::logic_error);
  EXPECT_THROW(reg.gauge("co_dup", {{"entity", "E1"}}), std::logic_error);
}

// ---------------------------------------------------------------------------
// Histogram + quantiles
// ---------------------------------------------------------------------------

TEST(Histogram, BasicMoments) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty -> 0
  for (const double x : {1.0, 2.0, 3.0}) h.observe(x);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
}

TEST(Histogram, QuantileEdgesClampToObservedRange) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(5.0);  // all equal
  // Every quantile of an all-equal distribution is that value, even though
  // the value sits inside bucket (4.096, 8.192].
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(h.quantile(q), 5.0) << "q=" << q;

  Histogram zeros;
  zeros.observe(0.0);
  zeros.observe(0.0);
  EXPECT_DOUBLE_EQ(zeros.quantile(0.5), 0.0);  // not interpolated up

  Histogram spread;
  spread.observe(1.0);
  spread.observe(100.0);
  EXPECT_DOUBLE_EQ(spread.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(spread.quantile(1.0), 100.0);
  const double p50 = spread.quantile(0.5);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 100.0);
}

TEST(Histogram, NegativeObservationsClampToZero) {
  Histogram h;
  h.observe(-3.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(Histogram, SnapshotSeriesQuantileMatchesLive) {
  MetricsRegistry reg;
  auto* h = reg.histogram("co_lat_ms");
  for (int i = 1; i <= 1000; ++i) h->observe(i * 0.01);
  const MetricsSnapshot snap = reg.snapshot(0);
  const auto* s = snap.find("co_lat_ms");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 1000u);
  EXPECT_DOUBLE_EQ(s->mean(), h->mean());
  for (const double q : {0.0, 0.5, 0.9, 1.0})
    EXPECT_DOUBLE_EQ(s->quantile(q), h->quantile(q)) << "q=" << q;
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

MetricsSnapshot sample_snapshot() {
  MetricsRegistry reg;
  reg.counter("co_pdus_total", {{"entity", "E0"}, {"kind", "data"}})->inc(3);
  reg.gauge("co_depth", {{"entity", "E\"0\\esc\n"}})->set(1.25);
  auto* h = reg.histogram("co_lat_ms", {{"entity", "E0"}}, "latency");
  for (const double x : {0.5, 1.0, 2.0, 1e9}) h->observe(x);
  return reg.snapshot(42);
}

TEST(Exporters, PrometheusOutputValidates) {
  const MetricsSnapshot snap = sample_snapshot();
  std::ostringstream os;
  obs::write_prometheus(os, snap);
  const std::string text = os.str();
  const auto problem = obs::validate_prometheus(text);
  EXPECT_FALSE(problem.has_value()) << *problem << "\n" << text;
  EXPECT_NE(text.find("# TYPE co_lat_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("co_lat_ms_count{entity=\"E0\"} 4"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  // Escaped label value: " -> \", \ -> \\, newline -> \n.
  EXPECT_NE(text.find("entity=\"E\\\"0\\\\esc\\n\""), std::string::npos);
}

TEST(Exporters, ValidatorRejectsMalformedExpositions) {
  // One representative of each checked failure class.
  const char* kHist = "# TYPE x histogram\n";
  const std::vector<std::pair<std::string, const char*>> bad = {
      {"0bad 1\n", "metric name"},
      {"x{9l=\"v\"} 1\n", "label name"},
      {"x 1 2 3\n", "trailing tokens"},
      {"x notanumber\n", "non-numeric value"},
      {"x 1\n", "sample precedes its TYPE"},
      {"# TYPE x counter\n# TYPE x counter\nx 1\n", "duplicate TYPE"},
      {std::string(kHist) +
           "x_bucket{le=\"1\"} 2\nx_bucket{le=\"2\"} 1\n"
           "x_bucket{le=\"+Inf\"} 2\nx_sum 0\nx_count 2\n",
       "non-cumulative buckets"},
      {std::string(kHist) +
           "x_bucket{le=\"+Inf\"} 2\nx_sum 0\nx_count 1\n",
       "+Inf vs _count"},
      {std::string(kHist) + "x_bucket{le=\"1\"} 1\nx_sum 0\nx_count 1\n",
       "missing +Inf"},
      {std::string(kHist) + "x_bucket{le=\"+Inf\"} 1\nx_count 1\n",
       "missing _sum"},
  };
  for (const auto& [text, why] : bad)
    EXPECT_TRUE(obs::validate_prometheus(text).has_value())
        << "accepted (" << why << "): " << text;
  EXPECT_FALSE(obs::validate_prometheus("# TYPE x counter\nx 1\n").has_value());
  EXPECT_FALSE(obs::validate_prometheus("").has_value());
}

TEST(Exporters, JsonlSnapshotIsStrictJson) {
  const MetricsSnapshot snap = sample_snapshot();
  std::ostringstream os;
  obs::write_jsonl_snapshot(os, snap);
  const std::string line = os.str();
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  const Json j = Json::parse(line);
  EXPECT_EQ(j.at("at_ns").as_i64(), 42);
  ASSERT_EQ(j.at("series").as_array().size(), snap.series.size());
  // Find the histogram series and check the sparse bucket encoding.
  bool found = false;
  for (const auto& s : j.at("series").as_array()) {
    if (s.at("name").as_string() != "co_lat_ms") continue;
    found = true;
    EXPECT_EQ(s.at("type").as_string(), "histogram");
    EXPECT_EQ(s.at("count").as_u64(), 4u);
    std::uint64_t bucket_total = 0;
    for (const auto& pair : s.at("buckets").as_array()) {
      ASSERT_EQ(pair.as_array().size(), 2u);
      EXPECT_GT(pair.as_array()[1].as_u64(), 0u);  // sparse: no zero entries
      bucket_total += pair.as_array()[1].as_u64();
    }
    EXPECT_EQ(bucket_total, 4u);
  }
  EXPECT_TRUE(found);
}

TEST(Exporters, CsvHasHeaderAndOneRowPerSeries) {
  const MetricsSnapshot snap = sample_snapshot();
  std::ostringstream os;
  obs::write_csv(os, snap);
  std::istringstream in(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "name,labels,type,value,count,sum,min,max,p50,p99");
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, snap.series.size());
}

// ---------------------------------------------------------------------------
// Zero perturbation: attaching observability changes nothing observable
// ---------------------------------------------------------------------------

struct RunFingerprint {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t executed = 0;
  std::uint64_t scheduled = 0;
  sim::SimTime finished = 0;
};

// `snap_out` (optional) receives a final snapshot taken while the cluster
// is still alive — the cluster-registered callback instruments sample live
// protocol state, so the registry must not be read after the cluster dies.
RunFingerprint run_workload(obs::Observability* bundle,
                            MetricsSnapshot* snap_out = nullptr) {
  obs::trace::DigestSink digest;
  obs::trace::TracerConfig streaming;
  streaming.overwrite_oldest = false;
  obs::trace::Tracer tracer(streaming, &digest);
  proto::ClusterOptions o;
  o.proto.n = 4;
  o.net.delay = net::DelayModel::fixed(100 * sim::kMicrosecond);
  o.net.buffer_capacity = 4096;
  o.tracer = &tracer;
  o.obs = bundle;
  proto::CoCluster c(o);
  c.network().force_drop(0, 2, 1);  // exercise park/retransmit paths too
  for (int i = 0; i < 5; ++i) {
    c.submit_text(0, "a" + std::to_string(i));
    c.submit_text(1, "b" + std::to_string(i));
  }
  EXPECT_TRUE(c.run_until_delivered(60'000 * sim::kMillisecond));
  tracer.flush();
  RunFingerprint fp;
  fp.digest = digest.digest();
  fp.events = digest.records();
  fp.executed = c.scheduler().executed_events();
  fp.scheduled = c.scheduler().scheduled_events();
  fp.finished = c.scheduler().now();
  if (bundle && snap_out) *snap_out = bundle->registry.snapshot(fp.finished);
  return fp;
}

TEST(ZeroPerturbation, MetricsAddNoEventsAndPreserveTheDigest) {
  const RunFingerprint bare = run_workload(nullptr);
  obs::Observability bundle(4);
  MetricsSnapshot snap;
  const RunFingerprint observed = run_workload(&bundle, &snap);
  // Identical execution: same trace digest over every protocol event, same
  // event counts, same scheduler activity, same finish time.
  EXPECT_EQ(observed.digest, bare.digest);
  EXPECT_EQ(observed.events, bare.events);
  EXPECT_EQ(observed.executed, bare.executed);
  EXPECT_EQ(observed.scheduled, bare.scheduled);
  EXPECT_EQ(observed.finished, bare.finished);
  // ... yet the attached run collected real data.
  EXPECT_EQ(snap.value_or("co_spans_completed"), 10.0);
  EXPECT_EQ(snap.value_or("co_spans_inflight"), 0.0);
  EXPECT_GT(snap.value_or("co_pdus_sent_total",
                          {{"entity", "E0"}, {"kind", "data"}}),
            0.0);
  // Taking a snapshot scheduled nothing.
  EXPECT_EQ(bundle.spans.inflight(), 0u);
}

// ---------------------------------------------------------------------------
// Spans through the harness
// ---------------------------------------------------------------------------

TEST(Spans, StageSumsMatchTheHarnessTapSample) {
  harness::ExperimentConfig cfg;
  cfg.n = 4;
  cfg.workload.messages_per_entity = 6;
  obs::Observability bundle(cfg.n);
  cfg.obs = &bundle;
  const harness::ExperimentResult r = harness::run_co_experiment(cfg);
  ASSERT_TRUE(r.completed);
  ASSERT_TRUE(r.metrics.has_value());

  // Merge the per-entity stage histograms the way co_inspect does.
  double sums[5] = {0, 0, 0, 0, 0};
  std::uint64_t counts[5] = {0, 0, 0, 0, 0};
  const char* stages[5] = {"network", "park", "pack_wait", "ack_wait",
                           "total"};
  for (std::size_t e = 0; e < cfg.n; ++e) {
    for (int s = 0; s < 5; ++s) {
      const auto* series = r.metrics->find(
          "co_stage_latency_ms",
          {{"entity", "E" + std::to_string(e)}, {"stage", stages[s]}});
      ASSERT_NE(series, nullptr) << stages[s];
      sums[s] += series->sum;
      counts[s] += series->count;
    }
  }
  // Every observer of every PDU contributes one sample per stage.
  const std::uint64_t expected = cfg.n * cfg.n * 6;
  for (int s = 0; s < 5; ++s) EXPECT_EQ(counts[s], expected) << stages[s];
  // total == network + park + pack_wait + ack_wait by construction, and its
  // mean is exactly the harness's app-to-app delay sample.
  const double stage_sum = sums[0] + sums[1] + sums[2] + sums[3];
  EXPECT_NEAR(stage_sum, sums[4], 1e-6);
  EXPECT_NEAR(sums[4] / static_cast<double>(counts[4]), r.tap_ms, 1e-9);

  // Top-k table: bounded, sorted slowest-first, consistent totals.
  const auto slow = bundle.spans.slowest();
  ASSERT_FALSE(slow.empty());
  EXPECT_LE(slow.size(), 10u);
  for (std::size_t i = 1; i < slow.size(); ++i)
    EXPECT_GE(slow[i - 1].total_ms, slow[i].total_ms);
  for (const auto& p : slow)
    EXPECT_NEAR(p.network_ms + p.park_ms + p.pack_wait_ms + p.ack_wait_ms,
                p.total_ms, 1e-6);
  EXPECT_EQ(bundle.spans.completed(), cfg.n * 6);
}

TEST(Spans, SnapshotPumpEmitsAMonotoneTimeSeries) {
  harness::ExperimentConfig cfg;
  cfg.n = 3;
  cfg.workload.messages_per_entity = 8;
  obs::Observability bundle(cfg.n);
  std::ostringstream series;
  cfg.obs = &bundle;
  cfg.metrics_snapshot_every = 200 * sim::kMicrosecond;
  cfg.metrics_snapshot_sink = &series;
  const harness::ExperimentResult r = harness::run_co_experiment(cfg);
  ASSERT_TRUE(r.completed);

  std::istringstream in(series.str());
  std::string line;
  std::int64_t prev_at = -1;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    const Json j = Json::parse(line);
    const std::int64_t at = j.at("at_ns").as_i64();
    EXPECT_GT(at, prev_at);  // strictly advancing snapshot times
    prev_at = at;
  }
  EXPECT_GE(lines, 2u) << "expected a time series, got " << lines << " lines";
}

// ---------------------------------------------------------------------------
// Fuzzer artifact embedding
// ---------------------------------------------------------------------------

TEST(FuzzMetrics, ReportsCarryMetricsAndArtifactsRoundTrip) {
  const fuzz::Scenario sc = fuzz::Scenario::generate(7);
  const fuzz::RunReport report = fuzz::run_scenario(sc, {});
  EXPECT_FALSE(report.metrics.series.empty());
  EXPECT_FALSE(report.entity_stats.empty());
  EXPECT_EQ(report.metrics.value_or("co_spans_completed"),
            static_cast<double>(report.submitted));

  const fuzz::Counterexample ce = fuzz::Counterexample::make(sc, report, {});
  const Json dumped = ce.to_json();
  ASSERT_TRUE(dumped.has("metrics"));
  EXPECT_EQ(dumped.at("metrics").dump(),
            obs::metrics_to_json(report.metrics).dump());
  const fuzz::Counterexample back =
      fuzz::Counterexample::from_json(Json::parse(dumped.dump()));
  EXPECT_EQ(back.metrics.dump(), ce.metrics.dump());
  EXPECT_EQ(back.entity_stats, ce.entity_stats);

  // Artifacts written before metrics embedding still load.
  Json::Object legacy = dumped.as_object();
  legacy.erase("metrics");
  legacy.erase("entity_stats");
  const fuzz::Counterexample old =
      fuzz::Counterexample::from_json(Json(legacy));
  EXPECT_TRUE(old.metrics.is_null());
  EXPECT_EQ(old.digest, ce.digest);
}

}  // namespace
}  // namespace co
