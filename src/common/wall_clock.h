// Monotonic wall-clock nanoseconds, for the Tco (protocol processing time)
// metric every protocol entity accumulates.
#pragma once

#include <chrono>
#include <cstdint>

namespace co {

inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace co
