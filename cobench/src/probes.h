// Layer probes run beside a workload: the codec over a simulated message
// mix, and the loopback UDP floor cost per datagram.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/co/effects.h"
#include "src/driver/effect_tap.h"

namespace cobench {

/// EffectTap that keeps every broadcast a simulated cluster emits (up to
/// `cap`, so a long run stays bounded) and counts timer arms and cancels.
class EffectCollector final : public co::driver::EffectTap {
 public:
  explicit EffectCollector(std::size_t cap = 50000) : cap_(cap) {}

  void on_effects(co::EntityId entity, co::time::Tick at,
                  const co::proto::EffectBatch& batch) override;

  const std::vector<co::proto::Message>& broadcasts() const {
    return broadcasts_;
  }
  std::array<std::uint64_t, co::proto::kTimerCount> arms{};
  std::array<std::uint64_t, co::proto::kTimerCount> cancels{};

 private:
  std::size_t cap_;
  std::vector<co::proto::Message> broadcasts_;
};

struct CodecCost {
  double encode_ns = 0.0;  // per message, proto::encode
  double decode_ns = 0.0;  // per message, proto::try_decode
};

/// Time proto::encode and proto::try_decode over `messages`, repeating the
/// whole mix until at least `min_seconds` of each was measured.
CodecCost time_codec(const std::vector<co::proto::Message>& messages,
                     double min_seconds = 0.2);

/// Loopback floor: nanoseconds per datagram of `bytes` bytes for one
/// UdpSocket::send_many of `batch` datagrams plus the receive_many calls
/// that drain them on a second socket. Median of three passes.
double udp_ns_per_datagram(std::size_t bytes, std::size_t batch = 32,
                           std::size_t datagrams = 65536);

}  // namespace cobench
