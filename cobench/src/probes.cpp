#include "cobench/src/probes.h"

#include <chrono>
#include <variant>

#include "cobench/src/bench.h"
#include "src/co/wire.h"
#include "src/transport/udp.h"

namespace cobench {

namespace {
using Clock = std::chrono::steady_clock;

volatile std::size_t codec_sink = 0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
}  // namespace

void EffectCollector::on_effects(co::EntityId /*entity*/,
                                 co::time::Tick /*at*/,
                                 const co::proto::EffectBatch& batch) {
  for (const co::proto::Effect& e : batch) {
    if (const auto* b = std::get_if<co::proto::BroadcastEffect>(&e)) {
      if (broadcasts_.size() < cap_) broadcasts_.push_back(b->msg);
    } else if (const auto* a = std::get_if<co::proto::ArmTimerEffect>(&e)) {
      ++arms[static_cast<std::size_t>(a->timer)];
    } else if (const auto* c =
                   std::get_if<co::proto::CancelTimerEffect>(&e)) {
      ++cancels[static_cast<std::size_t>(c->timer)];
    }
  }
}

CodecCost time_codec(const std::vector<co::proto::Message>& messages,
                     double min_seconds) {
  CodecCost out;
  if (messages.empty()) return out;
  std::vector<std::vector<std::uint8_t>> encoded;
  encoded.reserve(messages.size());
  for (const auto& m : messages) encoded.push_back(co::proto::encode(m));

  // The loops feed a volatile, so neither can be dropped as dead code.
  std::size_t sink = 0;
  std::size_t passes = 0;
  auto t0 = Clock::now();
  do {
    for (const auto& m : messages) sink += co::proto::encode(m).size();
    ++passes;
  } while (seconds_since(t0) < min_seconds);
  out.encode_ns = seconds_since(t0) * 1e9 /
                  static_cast<double>(passes * messages.size());

  passes = 0;
  t0 = Clock::now();
  do {
    for (const auto& b : encoded)
      sink += co::proto::try_decode(b).has_value() ? 1 : 0;
    ++passes;
  } while (seconds_since(t0) < min_seconds);
  out.decode_ns = seconds_since(t0) * 1e9 /
                  static_cast<double>(passes * encoded.size());
  codec_sink = sink;
  return out;
}

double udp_ns_per_datagram(std::size_t bytes, std::size_t batch,
                           std::size_t datagrams) {
  co::transport::UdpSocket tx, rx;
  tx.bind_loopback(0);
  rx.bind_loopback(0);
  const co::transport::UdpEndpoint to = rx.local_endpoint();
  const std::vector<std::uint8_t> payload(std::max<std::size_t>(bytes, 1),
                                          0x5a);
  std::vector<co::transport::TxDatagram> burst(
      batch, co::transport::TxDatagram{to, payload});
  co::transport::RecvBatch recv(batch, 2048);

  std::vector<double> passes;
  for (int pass = 0; pass < 3; ++pass) {
    std::size_t received = 0;
    const auto t0 = Clock::now();
    while (received < datagrams) {
      const co::transport::TxResult r = tx.send_many(burst);
      std::size_t got = 0;
      // Drain what reached the kernel; give up on a burst after 100 ms so
      // a lost datagram cannot hang the probe.
      const auto burst_deadline = Clock::now() + std::chrono::milliseconds(100);
      while (got < r.sent && Clock::now() < burst_deadline) {
        const std::size_t k = rx.receive_many(recv);
        if (k == 0) rx.wait_readable(10);
        got += k;
      }
      received += got;
      if (r.sent == 0) break;
    }
    if (received > 0)
      passes.push_back(seconds_since(t0) * 1e9 /
                       static_cast<double>(received));
  }
  return median(passes);
}

}  // namespace cobench
