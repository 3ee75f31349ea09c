// The one wiring shape every baseline entity is built with, so a single
// SimCluster (src/baselines/sim_cluster.h) can drive CBCAST, TO and PO.
#pragma once

#include <functional>

#include "src/sim/time.h"

namespace co::baselines {

template <class Msg, class Delivered>
struct EntityHooks {
  /// Hand a message to the broadcast medium.
  std::function<void(Msg)> broadcast;
  /// Application delivery upcall.
  std::function<void(const Delivered&)> deliver;
  /// Run a callback after a simulated delay (loss-recovery timers).
  std::function<void(sim::SimDuration, std::function<void()>)> schedule;
};

}  // namespace co::baselines
