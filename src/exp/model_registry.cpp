#include "exp/model_registry.h"

#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "util/thread_annotations.h"

namespace sturgeon::exp {

namespace {

// Per-key train-once slot. The registry mutex only guards the maps; the
// expensive profiling campaign runs under the slot's own latch, so
// concurrent callers for the SAME service serialize on the slot (one
// trains, the rest wait and reuse) while DIFFERENT services train in
// parallel. Lock order is always latch -> g_mu (slot_for releases g_mu
// before any latch is taken, predictor assembly holds its latch while
// slot_for re-takes g_mu), never the reverse.
template <typename T>
struct Slot {
  Mutex latch;
  bool ready STURGEON_GUARDED_BY(latch) = false;
  T value STURGEON_GUARDED_BY(latch);
};

Mutex g_mu;
std::map<std::string, std::shared_ptr<Slot<core::LsModels>>> g_ls_models
    STURGEON_GUARDED_BY(g_mu);
std::map<std::string, std::shared_ptr<Slot<core::BeModels>>> g_be_models
    STURGEON_GUARDED_BY(g_mu);
std::map<std::pair<std::string, std::string>,
         std::shared_ptr<Slot<std::shared_ptr<const core::Predictor>>>>
    g_predictors STURGEON_GUARDED_BY(g_mu);
std::uint64_t g_seed_in_use STURGEON_GUARDED_BY(g_mu) = 0;
bool g_seed_set STURGEON_GUARDED_BY(g_mu) = false;

void check_seed_locked(std::uint64_t seed) STURGEON_REQUIRES(g_mu) {
  if (g_seed_set && g_seed_in_use != seed) {
    throw std::logic_error(
        "model registry: one profiling campaign (seed) per process; call "
        "clear_predictor_cache() to retrain with a different seed");
  }
  g_seed_in_use = seed;
  g_seed_set = true;
}

template <typename Map, typename Key>
auto slot_for(Map& map, const Key& key, std::uint64_t seed)
    -> typename Map::mapped_type {
  MutexLock lock(g_mu);
  check_seed_locked(seed);
  auto& slot = map[key];
  if (!slot) {
    slot = std::make_shared<typename Map::mapped_type::element_type>();
  }
  return slot;
}

/// The LS set's slot with its models fitted; its QoS table may be
/// pending. Takes the slot's latch, as ls_models_for() does.
std::shared_ptr<Slot<core::LsModels>> fitted_ls_slot(
    const LsProfile& ls, const core::TrainerConfig& config) {
  auto slot = slot_for(g_ls_models, ls.name, config.seed);
  MutexLock latch(slot->latch);
  if (!slot->ready) {
    slot->value =
        core::fit_ls_models(core::collect_ls_profiling(ls, config), config);
    slot->ready = true;
  }
  return slot;
}

/// Complete the slot's QoS table on `pool` (nullptr = this thread).
const core::LsModels& finish_ls_slot(Slot<core::LsModels>& slot,
                                     const core::TrainerConfig& config,
                                     ThreadPool* pool) {
  MutexLock latch(slot.latch);
  core::add_qos_table(slot.value, config.server.machine, pool);
  return slot.value;
}

}  // namespace

const core::LsModels& ls_models_for(const LsProfile& ls,
                                    const core::TrainerConfig& config) {
  return finish_ls_slot(*fitted_ls_slot(ls, config), config, nullptr);
}

const core::BeModels& be_models_for(const BeProfile& be,
                                    const core::TrainerConfig& config) {
  const auto slot = slot_for(g_be_models, be.name, config.seed);
  MutexLock latch(slot->latch);
  if (!slot->ready) {
    slot->value =
        core::train_be_models(core::collect_be_profiling(be, config), config);
    slot->ready = true;
  }
  return slot->value;
}

std::shared_ptr<const core::Predictor> predictor_for(
    const LsProfile& ls, const BeProfile& be,
    const core::TrainerConfig& config) {
  const auto slot = slot_for(
      g_predictors, std::make_pair(ls.name, be.name), config.seed);
  MutexLock latch(slot->latch);
  if (!slot->ready) {
    const auto& ls_models = ls_models_for(ls, config);
    const auto& be_models = be_models_for(be, config);
    slot->value = std::make_shared<const core::Predictor>(
        config.server.machine, core::assemble_models(ls_models, be_models));
    slot->ready = true;
  }
  return slot->value;
}

void warm_models(
    const std::vector<std::pair<const LsProfile*, const BeProfile*>>& pairs,
    ThreadPool* pool, const core::TrainerConfig& config) {
  // Profile each *service* once, concurrently where a pool is given, then
  // build each LS set's QoS table with its slices split across the pool;
  // the cheap per-pair predictor assembly then runs sequentially.
  std::vector<const LsProfile*> ls_todo;
  std::vector<const BeProfile*> be_todo;
  std::set<std::string> seen_ls, seen_be;
  for (const auto& [ls, be] : pairs) {
    if (ls == nullptr || be == nullptr) {
      throw std::invalid_argument("warm_models: null profile");
    }
    if (seen_ls.insert(ls->name).second) ls_todo.push_back(ls);
    if (seen_be.insert(be->name).second) be_todo.push_back(be);
  }

  const std::size_t n = ls_todo.size() + be_todo.size();
  const bool parallel = pool != nullptr && pool->size() > 1;
  const auto train_one = [&](std::size_t i) {
    if (i < ls_todo.size()) {
      fitted_ls_slot(*ls_todo[i], config);
    } else {
      be_models_for(*be_todo[i - ls_todo.size()], config);
    }
  };
  if (parallel && n > 1) {
    pool->parallel_for(n, train_one);
  } else {
    for (std::size_t i = 0; i < n; ++i) train_one(i);
  }
  // The tables are a phase of their own, on this thread: a pool task that
  // called parallel_for on its own pool would throw (it could deadlock).
  for (const LsProfile* ls : ls_todo) {
    finish_ls_slot(*fitted_ls_slot(*ls, config), config,
                   parallel ? pool : nullptr);
  }
  for (const auto& [ls, be] : pairs) predictor_for(*ls, *be, config);
}

void clear_predictor_cache() {
  MutexLock lock(g_mu);
  g_predictors.clear();
  g_ls_models.clear();
  g_be_models.clear();
  g_seed_set = false;
}

}  // namespace sturgeon::exp
