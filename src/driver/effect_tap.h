// EffectTap — passive observation of the effect stream a driver replays.
//
// driver::Driver invokes the tap once per non-empty step, before replaying
// the batch into its Env, whichever runtime owns it (ClusterOptions::
// effect_tap in the simulator). The fuzz runner's recorder uses this to fold
// every effect into a digest and to snapshot effect transcripts for
// counterexample artifacts; nothing in the protocol depends on a tap being
// present.
#pragma once

#include "src/co/effects.h"
#include "src/co/time.h"
#include "src/common/types.h"

namespace co::driver {

class EffectTap {
 public:
  virtual ~EffectTap() = default;

  /// `entity` stepped at driver time `at` and emitted `batch` (non-empty).
  /// Called before the driver replays the batch, in step order.
  virtual void on_effects(EntityId entity, time::Tick at,
                          const proto::EffectBatch& batch) = 0;
};

}  // namespace co::driver
