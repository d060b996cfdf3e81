// Feature construction for the performance/power models (paper Section
// V-A): four inputs selected by Lasso -- input size (QPS for LS services,
// input level for BE applications), number of cores, core frequency, and
// LLC ways. Centralized here so the trainer and the online predictor can
// never drift apart on feature order or units.
#pragma once

#include "ml/dataset.h"
#include "util/types.h"

namespace sturgeon::core {

/// LS model features: {kQPS, cores, frequency GHz, LLC ways}. QPS is in
/// thousands (real scale) to keep features in comparable ranges for the
/// distance- and gradient-based model families.
ml::FeatureRow ls_features(const MachineSpec& m, double qps_real,
                           const AppSlice& slice);
/// The same row written into `row`, reusing its storage (the predictor's
/// per-query path allocates nothing once `row` has grown to four values).
void ls_features(const MachineSpec& m, double qps_real, const AppSlice& slice,
                 ml::FeatureRow& row);

/// BE model features: {input level, cores, frequency GHz, LLC ways}.
/// PARSEC defines six input levels; this reproduction runs the native
/// input (level 6) but the feature is kept so trained models transfer to
/// multi-input deployments.
ml::FeatureRow be_features(const MachineSpec& m, double input_level,
                           const AppSlice& slice);

/// Default PARSEC input level used throughout the reproduction.
inline constexpr double kNativeInputLevel = 6.0;

}  // namespace sturgeon::core
