// Process-wide cache of trained models, mirroring the paper's deployment
// where "all offline-trained models are stored on the server and the most
// suitable one can be deployed" (Section V-C). LS models are independent
// of the co-runner (and vice versa), so each LS service and BE
// application is profiled once per process and shared by every pair.
//
// Sharing contract (the cluster layer leans on this): lookups are
// thread-safe and train-once -- concurrent callers asking for the same
// service block on a per-key latch while exactly one of them trains, so
// N nodes resolving the same predictor never retrain N times (the old
// registry raced: two simultaneous misses both ran the full profiling
// campaign and one result was thrown away). Distinct services still
// train concurrently. The returned Predictor is immutable and safe to
// share across threads/nodes for the registry's lifetime.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/predictor.h"
#include "core/trainer.h"
#include "util/thread_pool.h"

namespace sturgeon::exp {

/// Trained predictor for an (LS service, BE application) pair; profiles
/// and trains the per-service model sets on first use. All calls in one
/// process must use the same TrainerConfig seed (one profiling campaign),
/// enforced with std::logic_error.
std::shared_ptr<const core::Predictor> predictor_for(
    const LsProfile& ls, const BeProfile& be,
    const core::TrainerConfig& config = {});

/// The underlying per-service model sets (with their per-family hold-out
/// scores, the data of Figs 6-7). Same caching discipline as above; an
/// LS set comes with its QoS table, which every predictor of the service
/// shares.
const core::LsModels& ls_models_for(const LsProfile& ls,
                                    const core::TrainerConfig& config = {});
const core::BeModels& be_models_for(const BeProfile& be,
                                    const core::TrainerConfig& config = {});

/// Pre-train every model a set of co-location pairs needs, profiling
/// distinct services concurrently on `pool` (nullptr = sequential), then
/// build each LS set's QoS table (core/qos_table.h) with its slices split
/// across `pool`. Must not run on a worker of `pool`. Afterwards
/// predictor_for() for any listed pair is a pure cache hit -- the cluster
/// runner warms its fleet's models once here instead of paying a training
/// campaign inside the first epoch of every node.
void warm_models(
    const std::vector<std::pair<const LsProfile*, const BeProfile*>>& pairs,
    ThreadPool* pool = nullptr, const core::TrainerConfig& config = {});

/// Drop all cached models (tests that need fresh training).
void clear_predictor_cache();

}  // namespace sturgeon::exp
