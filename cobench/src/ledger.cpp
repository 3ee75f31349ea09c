#include "cobench/src/ledger.h"

#include <algorithm>
#include <unordered_map>

#include "src/obs/trace/events.h"

namespace cobench {

using co::obs::trace::EventId;
using co::obs::trace::Record;

void RecordSink::on_records(std::uint16_t /*stream*/, const Record* records,
                            std::size_t count,
                            std::uint64_t /*dropped_so_far*/) {
  // Keep only the events build_ledger reads: wire_rx, timer arm/cancel and
  // the ack records are the bulk of a trace and would only cost memory.
  std::vector<Record>& chunk = chunks_.emplace_back();
  for (std::size_t i = 0; i < count; ++i) {
    switch (static_cast<EventId>(records[i].event)) {
      case EventId::kSubmit:
      case EventId::kSend:
      case EventId::kAccept:
      case EventId::kPack:
      case EventId::kDeliver:
      case EventId::kTimerFire:
      case EventId::kWireTx:
        chunk.push_back(records[i]);
        break;
      default:
        break;
    }
  }
}

const char* stage_name(std::size_t stage) {
  static constexpr const char* kNames[kStageCount] = {
      "gen_late", "submit",  "ring_wait", "queue_wait",
      "transit",  "pack_wait", "ack_wait", "callback"};
  return stage < kStageCount ? kNames[stage] : "?";
}

namespace {

struct Sent {
  std::uint64_t seq = 0;
  std::int64_t at = 0;
};

struct Stamps {
  std::int64_t accept = -1;
  std::int64_t pack = -1;
  std::int64_t deliver = -1;
};

std::uint64_t stage_key(EntityId actor, EntityId origin, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(actor) << 54) |
         (static_cast<std::uint64_t>(origin) << 44) | seq;
}

}  // namespace

Ledger build_ledger(const RecordSink& sink,
                    const std::vector<std::vector<SubmitTimes>>& submits,
                    const std::vector<DeliveryRec>& deliveries,
                    bool has_submit_records) {
  Ledger out;
  const std::size_t n = submits.size();
  std::vector<std::vector<std::int64_t>> submit_rec(n);
  std::vector<std::vector<Sent>> data_sent(n);
  std::unordered_map<std::uint64_t, Stamps> stamps;
  stamps.reserve(deliveries.size() * 2);

  const auto in_range = [n](EntityId e) {
    return e >= 0 && static_cast<std::size_t>(e) < n;
  };
  for (const auto& chunk : sink.chunks()) {
    for (const Record& r : chunk) {
      switch (static_cast<EventId>(r.event)) {
        case EventId::kSubmit:
          if (in_range(r.actor))
            submit_rec[static_cast<std::size_t>(r.actor)].push_back(r.at);
          break;
        case EventId::kSend:
          if (r.arg == 1 && in_range(r.actor) && r.origin == r.actor)
            data_sent[static_cast<std::size_t>(r.actor)].push_back(
                Sent{r.seq, r.at});
          break;
        case EventId::kAccept:
          stamps[stage_key(r.actor, r.origin, r.seq)].accept = r.at;
          break;
        case EventId::kPack:
          stamps[stage_key(r.actor, r.origin, r.seq)].pack = r.at;
          break;
        case EventId::kDeliver:
          stamps[stage_key(r.actor, r.origin, r.seq)].deliver = r.at;
          break;
        case EventId::kTimerFire:
          if (r.arg < out.timer_fires.size()) ++out.timer_fires[r.arg];
          break;
        case EventId::kWireTx:
          ++out.wire_tx;
          out.wire_tx_bytes += r.arg;
          break;
        default:
          break;
      }
    }
  }

  std::array<std::vector<double>, kStageCount> samples;
  double tap_sum = 0.0;
  std::uint64_t matched = 0;
  for (const DeliveryRec& d : deliveries) {
    if (!in_range(d.src)) continue;
    const auto src = static_cast<std::size_t>(d.src);
    if (d.index >= submits[src].size()) continue;
    const SubmitTimes& s = submits[src][d.index];
    tap_sum += static_cast<double>(d.callback - s.due);
    if (d.index >= data_sent[src].size()) continue;
    if (has_submit_records && d.index >= submit_rec[src].size()) continue;
    const Sent& sent = data_sent[src][d.index];
    const auto it = stamps.find(stage_key(d.at, d.src, sent.seq));
    if (it == stamps.end()) continue;
    const Stamps& st = it->second;
    if (st.accept < 0 || st.pack < 0 || st.deliver < 0) continue;
    const std::int64_t drained =
        has_submit_records ? submit_rec[src][d.index] : s.ret;
    const std::int64_t bounds[kStageCount + 1] = {
        s.due, s.call, s.ret, drained, sent.at,
        st.accept, st.pack, st.deliver, d.callback};
    for (std::size_t k = 0; k < kStageCount; ++k)
      samples[k].push_back(static_cast<double>(bounds[k + 1] - bounds[k]) /
                           1e3);
    ++matched;
  }

  out.coverage = deliveries.empty()
                     ? 0.0
                     : static_cast<double>(matched) /
                           static_cast<double>(deliveries.size());
  out.tap_mean_us =
      deliveries.empty()
          ? 0.0
          : tap_sum / 1e3 / static_cast<double>(deliveries.size());
  for (std::size_t k = 0; k < kStageCount; ++k) {
    out.mean_us[k] = mean(samples[k]);
    out.p50_us[k] = quantile(samples[k], 0.5);
    out.p99_us[k] = quantile(samples[k], 0.99);
    out.stage_sum_us += out.mean_us[k];
  }
  out.residual_share = out.tap_mean_us > 0
                           ? (out.tap_mean_us - out.stage_sum_us) /
                                 out.tap_mean_us
                           : 0.0;
  return out;
}

}  // namespace cobench
