// Exporters for MetricsSnapshot.
//
// Three formats, one source of truth:
//   * Prometheus text exposition (format 0.0.4) — scrape-style dumps; the
//     histogram ladder becomes cumulative `le` buckets. validate_prometheus
//     is a self-contained checker used by tests and the co_inspect smoke
//     step, so the emitter cannot silently drift from the format.
//   * JSONL — one snapshot per line (time series when pumped periodically
//     by harness::SnapshotPump); strict JSON parseable by co::Json
//     (src/common/json.h), and metrics_to_json builds the same shape as a
//     Json value for documents that embed a snapshot. Histogram buckets are
//     emitted sparsely as [index, count] pairs over the shared ladder to
//     keep lines small.
//   * CSV — one row per series with derived p50/p99, for benches and
//     spreadsheets.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "src/common/json.h"
#include "src/obs/metrics.h"

namespace co::obs {

/// Prometheus text exposition. `help_source` (optional) supplies # HELP
/// lines; # TYPE is always emitted. Families appear in snapshot order.
void write_prometheus(std::ostream& os, const MetricsSnapshot& snap,
                      const MetricsRegistry* help_source = nullptr);

/// One strict-JSON line (terminated by '\n'):
///   {"at_ns":..,"series":[{"name":..,"labels":{..},"type":..,...},..]}
/// Counters/gauges carry "value"; histograms carry "count","sum","min",
/// "max" and sparse "buckets":[[bucket_index,count],..] (index
/// Histogram::bounds().size() == the +Inf overflow bucket).
void write_jsonl_snapshot(std::ostream& os, const MetricsSnapshot& snap);

/// The write_jsonl_snapshot shape as a Json value, for documents that embed
/// a snapshot (counterexample artifacts, bench reports).
Json metrics_to_json(const MetricsSnapshot& snap);

/// CSV with header: name,labels,type,value,count,sum,min,max,p50,p99.
/// Labels are packed as semicolon-separated k=v pairs; the labels field is
/// RFC-4180 quoted when needed and newlines are flattened to literal \n so
/// every series stays on one row.
void write_csv(std::ostream& os, const MetricsSnapshot& snap);

/// Check `text` against the Prometheus text format: comment/sample line
/// grammar, metric/label name charsets, TYPE declarations preceding their
/// samples, and histogram series consistency (cumulative non-decreasing
/// buckets, strictly increasing `le`, terminal le="+Inf" matching _count,
/// _sum/_count present). Returns nullopt when valid, else a description of
/// the first problem.
std::optional<std::string> validate_prometheus(std::string_view text);

// The scheduler-driven JSONL time-series pump lives in
// src/harness/snapshot_pump.h (harness::SnapshotPump): it needs the sim
// scheduler, and src/obs must stay sim-free so the realtime path can link
// the exporters (scripts/check_layering.py enforces this).

}  // namespace co::obs
