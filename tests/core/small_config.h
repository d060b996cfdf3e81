// The reduced profiling campaign the oracle suites train on: small
// enough to train in about a second per service, and every LS service
// deploys an MlpClassifier under it.
#pragma once

#include "core/trainer.h"

namespace sturgeon::core::testing {

inline TrainerConfig small_config() {
  TrainerConfig cfg;
  cfg.ls_samples = 120;
  cfg.ls_boundary_searches = 25;
  cfg.be_samples = 100;
  cfg.intervals_per_sample = 2;
  cfg.seed = 0x5151;
  return cfg;
}

}  // namespace sturgeon::core::testing
