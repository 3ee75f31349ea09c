// EffectTap — passive observation of everything a core step emits.
//
// driver::Driver invokes the tap once per step that emitted effects or
// trace records, before the Env sees either, whichever runtime owns it
// (ClusterOptions::effect_tap in the simulator, HostBuilder::effect_tap on
// the UDP host, where it runs on the shard threads). The batch carries the
// effects and the step's protocol milestones (EffectBatch::records, each
// naming its actor), so one tap can observe every entity: the fuzz runner's
// recorder folds the effects into a digest, the host tests feed the
// causality oracle from the records. Nothing in the protocol depends on a
// tap being present.
#pragma once

#include "src/co/effects.h"
#include "src/co/time.h"
#include "src/common/types.h"

namespace co::driver {

class EffectTap {
 public:
  virtual ~EffectTap() = default;

  /// `entity` stepped at driver time `at` and emitted `batch` (effects,
  /// records or both). Called before the driver replays the batch, in step
  /// order.
  virtual void on_effects(EntityId entity, time::Tick at,
                          const proto::EffectBatch& batch) = 0;
};

}  // namespace co::driver
