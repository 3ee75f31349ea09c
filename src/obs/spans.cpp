#include "src/obs/spans.h"

#include <algorithm>
#include <string>

#include "src/common/expect.h"
#include "src/obs/trace/events.h"

namespace co::obs {

namespace {

std::string entity_label(std::size_t e) { return "E" + std::to_string(e); }

}  // namespace

PduSpanTracker::PduSpanTracker(std::size_t n, MetricsRegistry* registry,
                               std::size_t top_k)
    : n_(n), top_k_(top_k), pending_submits_(n) {
  CO_EXPECT(n > 0);
  CO_EXPECT(registry != nullptr);
  static const char* kStageHelp =
      "Per-PDU receipt-pipeline stage latency at the labeled observer";
  hists_.reserve(n);
  for (std::size_t e = 0; e < n; ++e) {
    const std::string ent = entity_label(e);
    StageHists h;
    h.network = registry->histogram("co_stage_latency_ms",
                                    {{"entity", ent}, {"stage", "network"}},
                                    kStageHelp);
    h.park = registry->histogram("co_stage_latency_ms",
                                 {{"entity", ent}, {"stage", "park"}});
    h.pack_wait = registry->histogram("co_stage_latency_ms",
                                      {{"entity", ent}, {"stage", "pack_wait"}});
    h.ack_wait = registry->histogram("co_stage_latency_ms",
                                     {{"entity", ent}, {"stage", "ack_wait"}});
    h.total = registry->histogram("co_stage_latency_ms",
                                  {{"entity", ent}, {"stage", "total"}});
    h.queue_wait = registry->histogram(
        "co_submit_queue_wait_ms", {{"entity", ent}},
        "Time a DT request waited in the app queue before broadcast");
    hists_.push_back(h);
  }
  registry->gauge_fn("co_spans_inflight", {},
                     [this] { return static_cast<double>(spans_.size()); },
                     "PDU spans opened but not yet acknowledged everywhere");
  spans_completed_ =
      registry->counter("co_spans_completed", {},
                        "PDU spans acknowledged by every entity");
}

void PduSpanTracker::on_submit(EntityId entity, time::Tick at) {
  const auto e = static_cast<std::size_t>(entity);
  CO_EXPECT(e < n_);
  pending_submits_[e].push_back(at);
}

void PduSpanTracker::on_record(const trace::Record& r) {
  const auto event = static_cast<trace::EventId>(r.event);
  const causality::PduKey key{r.origin, r.seq};
  const time::Tick at = r.at;
  if (event == trace::EventId::kSend) {
    if (r.arg == 0) return;  // ack-only PDU: not tracked
    const auto src = static_cast<std::size_t>(key.src);
    CO_EXPECT(src < n_);
    auto& queue = pending_submits_[src];
    if (!queue.empty()) {
      hists_[src].queue_wait->observe(time::to_ms(at - queue.front()));
      queue.pop_front();
    }
    Span span;
    span.sent = at;
    span.observers.resize(n_);
    spans_.emplace(key, std::move(span));
    return;
  }
  const auto it = spans_.find(key);
  if (it == spans_.end()) return;  // ack-only PDU or pre-attach span
  Span& span = it->second;
  const auto e = static_cast<std::size_t>(r.actor);
  CO_EXPECT(e < n_);
  Observer& obs = span.observers[e];
  StageHists& h = hists_[e];
  switch (event) {
    case trace::EventId::kPark:
      if (obs.first_seen < 0) obs.first_seen = at;
      break;
    case trace::EventId::kAccept:
      if (obs.first_seen < 0) obs.first_seen = at;
      obs.accepted = at;
      h.network->observe(time::to_ms(obs.first_seen - span.sent));
      h.park->observe(time::to_ms(at - obs.first_seen));
      break;
    case trace::EventId::kPack:
      obs.packed = at;
      if (obs.accepted >= 0) h.pack_wait->observe(time::to_ms(at - obs.accepted));
      break;
    case trace::EventId::kDeliver:
      obs.delivered = true;
      break;
    case trace::EventId::kAck:
      obs.acked = at;
      if (obs.packed >= 0) h.ack_wait->observe(time::to_ms(at - obs.packed));
      h.total->observe(time::to_ms(at - span.sent));
      ++span.acked;
      if (span.acked == n_) {
        finish_span(key, span);
        spans_.erase(it);
      }
      break;
    default:  // dup, f1, rtx, ...: not a lifecycle stage
      break;
  }
}

void PduSpanTracker::finish_span(const causality::PduKey& key,
                                 const Span& span) {
  ++completed_;
  if (spans_completed_) spans_completed_->inc();
  if (top_k_ == 0) return;

  // Worst observer = largest ack − send; ties go to the lowest entity id so
  // reports are deterministic regardless of map iteration order.
  std::size_t worst = 0;
  for (std::size_t e = 1; e < n_; ++e)
    if (span.observers[e].acked > span.observers[worst].acked) worst = e;
  const Observer& o = span.observers[worst];

  SlowPdu slow;
  slow.key = key;
  slow.worst_observer = static_cast<EntityId>(worst);
  slow.sent_at = span.sent;
  slow.total_ms = time::to_ms(o.acked - span.sent);
  if (o.first_seen >= 0) slow.network_ms = time::to_ms(o.first_seen - span.sent);
  if (o.accepted >= 0 && o.first_seen >= 0)
    slow.park_ms = time::to_ms(o.accepted - o.first_seen);
  if (o.packed >= 0 && o.accepted >= 0)
    slow.pack_wait_ms = time::to_ms(o.packed - o.accepted);
  if (o.acked >= 0 && o.packed >= 0)
    slow.ack_wait_ms = time::to_ms(o.acked - o.packed);

  if (slowest_.size() < top_k_) {
    slowest_.push_back(slow);
    return;
  }
  // Replace the current fastest entry if this span is slower.
  std::size_t fastest = 0;
  for (std::size_t i = 1; i < slowest_.size(); ++i)
    if (slowest_[i].total_ms < slowest_[fastest].total_ms) fastest = i;
  if (slow.total_ms > slowest_[fastest].total_ms) slowest_[fastest] = slow;
}

std::vector<SlowPdu> PduSpanTracker::slowest() const {
  std::vector<SlowPdu> out = slowest_;
  std::sort(out.begin(), out.end(), [](const SlowPdu& a, const SlowPdu& b) {
    if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
    return a.key < b.key;
  });
  return out;
}

}  // namespace co::obs
