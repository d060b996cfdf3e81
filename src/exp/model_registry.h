// Process-wide cache of trained models, mirroring the paper's deployment
// where "all offline-trained models are stored on the server and the most
// suitable one can be deployed" (Section V-C). LS models are independent
// of the co-runner (and vice versa), so each LS service and BE
// application is profiled once per process and shared by every pair.
//
// Sharing contract (the cluster layer leans on this): lookups are
// thread-safe and train-once. Each service's slot is free, claimed or
// ready. The caller that claims a free slot trains it and publishes the
// result; every other caller for that service, including a lazy caller
// while warm_models() is training it, waits for the result and never
// trains a second copy. Distinct services still train concurrently. An
// LS set comes with its QoS table and a BE set with its BE tables, and
// every predictor of the service shares them. The returned Predictor is
// immutable and safe to share across threads/nodes for the registry's
// lifetime.
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

/// Pre-train every model a set of co-location pairs needs, on `pool`
/// (nullptr or one worker = on this thread). It claims each listed
/// service that no caller has trained or is training, then runs the lazy
/// path's pieces as one schedule of phases: profiling (each LS service's
/// boundary-search chain, each uniform-sweep probe, each BE set's
/// profiling), role fits (LS QoS and power, BE IPC and power), tables
/// (each BE set's as one item, each LS QoS table with its slices split
/// across `pool`) and predictors. In each phase the pool's workers claim
/// the items one at a time, longest first, so no worker idles while
/// another works through a block of services. Every row, score, model
/// and table is bit-identical to the lazy path's. Must not run on a
/// worker of `pool`, and no lazy caller on a worker of `pool` may ask
/// for a service this call is training. Afterwards predictor_for() for
/// any listed pair is a pure cache hit -- the cluster runner warms its
/// fleet's models once here instead of paying a training campaign
/// inside the first epoch of every node.
void warm_models(
    const std::vector<std::pair<const LsProfile*, const BeProfile*>>& pairs,
    ThreadPool* pool = nullptr, const core::TrainerConfig& config = {});

/// Drop all cached models (tests that need fresh training).
void clear_predictor_cache();

}  // namespace sturgeon::exp
