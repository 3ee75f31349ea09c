// Observability bundle: one registry + one span tracker, wired together.
//
// Attach an instance to ClusterOptions::obs (or harness ExperimentConfig)
// to light up the introspection layer for a run: the cluster folds every
// entity's trace records into the span tracker. When none is attached the
// cluster pays a single null-check per record — the same discipline as an
// unattached obs::trace::Tracer.
//
// Lifetime: the cluster registers callback instruments that sample live
// protocol state, so take the final registry.snapshot() while the cluster
// is still alive. Snapshots themselves are plain data and outlive
// everything.
#pragma once

#include <cstddef>

#include "src/obs/metrics.h"
#include "src/obs/spans.h"

namespace co::obs {

struct Observability {
  MetricsRegistry registry;
  PduSpanTracker spans;

  explicit Observability(std::size_t n, std::size_t top_k = 10)
      : spans(n, &registry, top_k) {}

  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;
};

}  // namespace co::obs
