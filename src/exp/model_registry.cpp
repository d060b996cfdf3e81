#include "exp/model_registry.h"

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "util/thread_annotations.h"

namespace sturgeon::exp {

namespace {

// Per-key train-once slot. The registry mutex only guards the maps, and
// no lock is held while a value trains: the caller that claims a free
// slot trains its value (one thread lazily, or warm_models' schedule
// across its pool) and then publishes it, and a caller that finds the
// slot claimed waits on `done` until it is ready. A claimer whose
// training throws frees the slot, so the next caller trains it afresh.
template <typename T>
struct Slot {
  enum class State { kFree, kClaimed, kReady };

  Mutex mu;
  CondVar done;
  State state STURGEON_GUARDED_BY(mu) = State::kFree;
  /// Written only by the claimer, read only once the slot is ready.
  T value;
};

/// A claim on a slot. publish() marks the value ready; a claim dropped
/// unpublished (its training threw) frees the slot. Either way waiters
/// wake.
template <typename T>
class Claim {
 public:
  explicit Claim(std::shared_ptr<Slot<T>> slot) : slot_(std::move(slot)) {}
  Claim(Claim&&) noexcept = default;
  Claim& operator=(Claim&&) = delete;
  ~Claim() { release(Slot<T>::State::kFree); }

  T& value() { return slot_->value; }

  void publish() { release(Slot<T>::State::kReady); }

 private:
  void release(typename Slot<T>::State to) {
    if (!slot_) return;
    {
      MutexLock lock(slot_->mu);
      slot_->state = to;
    }
    slot_->done.notify_all();
    slot_.reset();
  }

  std::shared_ptr<Slot<T>> slot_;
};

/// Claim `slot` when it is free. A claimed slot makes this wait for its
/// claimer when `wait`, else return at once. Returns whether this caller
/// now holds the claim.
template <typename T>
bool try_claim(Slot<T>& slot, bool wait) {
  using State = typename Slot<T>::State;
  MutexLock lock(slot.mu);
  while (wait && slot.state == State::kClaimed) slot.done.wait(slot.mu);
  if (slot.state != State::kFree) return false;
  slot.state = State::kClaimed;
  return true;
}

/// The slot's value: trained here by `train` when the slot is free,
/// else the claimer's, waited for.
template <typename T, typename Train>
const T& resolve(const std::shared_ptr<Slot<T>>& slot, Train&& train) {
  if (try_claim(*slot, /*wait=*/true)) {
    Claim<T> claim(slot);
    claim.value() = train();
    claim.publish();
  }
  return slot->value;
}

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

/// Run every item. On a pool of more than one worker, each worker
/// claims the next unclaimed item until none is left, so items start in
/// the order given and a long item never queues behind a block of
/// others (ThreadPool::parallel_for hands out contiguous blocks). Must
/// not run on a worker of `pool`.
void run_claimed(ThreadPool* pool,
                 const std::vector<std::function<void()>>& items) {
  const std::size_t workers = pool != nullptr ? pool->size() : 0;
  if (workers <= 1 || items.size() <= 1) {
    for (const auto& item : items) item();
    return;
  }
  std::atomic<std::size_t> next{0};
  pool->parallel_for(workers, [&](std::size_t) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < items.size(); i = next.fetch_add(1, std::memory_order_relaxed)) {
      items[i]();
    }
  });
}

/// One LS service warm_models trains: its claim, campaign and data.
struct LsJob {
  LsJob(Claim<core::LsModels> c, const LsProfile& ls,
        const core::TrainerConfig& config)
      : claim(std::move(c)), campaign(ls, config) {}

  Claim<core::LsModels> claim;
  core::LsCampaign campaign;
  core::LsProfilingData data;
};

struct BeJob {
  Claim<core::BeModels> claim;
  const BeProfile* be;
  core::BeProfilingData data;
};

}  // namespace

const core::LsModels& ls_models_for(const LsProfile& ls,
                                    const core::TrainerConfig& config) {
  return resolve(slot_for(g_ls_models, ls.name, config.seed), [&] {
    return core::train_ls_models(core::collect_ls_profiling(ls, config),
                                 config);
  });
}

const core::BeModels& be_models_for(const BeProfile& be,
                                    const core::TrainerConfig& config) {
  return resolve(slot_for(g_be_models, be.name, config.seed), [&] {
    return core::train_be_models(core::collect_be_profiling(be, config),
                                 config);
  });
}

std::shared_ptr<const core::Predictor> predictor_for(
    const LsProfile& ls, const BeProfile& be,
    const core::TrainerConfig& config) {
  const auto slot = slot_for(
      g_predictors, std::make_pair(ls.name, be.name), config.seed);
  return resolve(slot, [&] {
    return std::make_shared<const core::Predictor>(
        config.server.machine,
        core::assemble_models(ls_models_for(ls, config),
                              be_models_for(be, config)));
  });
}

void warm_models(
    const std::vector<std::pair<const LsProfile*, const BeProfile*>>& pairs,
    ThreadPool* pool, const core::TrainerConfig& config) {
  // Claim every distinct service no caller has trained or is training.
  // A service claimed elsewhere is waited for by the predictor phase.
  std::deque<LsJob> ls_jobs;  // a deque: items hold references into it
  std::deque<BeJob> be_jobs;
  std::set<std::string> seen_ls, seen_be;
  for (const auto& [ls, be] : pairs) {
    if (ls == nullptr || be == nullptr) {
      throw std::invalid_argument("warm_models: null profile");
    }
    if (seen_ls.insert(ls->name).second) {
      auto slot = slot_for(g_ls_models, ls->name, config.seed);
      if (try_claim(*slot, /*wait=*/false)) {
        ls_jobs.emplace_back(Claim(std::move(slot)), *ls, config);
      }
    }
    if (seen_be.insert(be->name).second) {
      auto slot = slot_for(g_be_models, be->name, config.seed);
      if (try_claim(*slot, /*wait=*/false)) {
        be_jobs.push_back({Claim(std::move(slot)), be, {}});
      }
    }
  }

  // The lazy path's pieces, one phase at a time, each phase's items
  // queued longest first.
  std::vector<std::function<void()>> items;
  // Profiling: each LS service's boundary-search chain (about ten probes
  // a search), then each BE set's profiling, then every sweep probe.
  for (LsJob& j : ls_jobs) {
    items.push_back([&j] { j.campaign.run_boundary_searches(); });
  }
  for (BeJob& j : be_jobs) {
    items.push_back(
        [&j, &config] { j.data = core::collect_be_profiling(*j.be, config); });
  }
  for (LsJob& j : ls_jobs) {
    for (std::size_t i = 0; i < j.campaign.sweep_size(); ++i) {
      items.push_back([&j, i] { j.campaign.run_sweep_probe(i); });
    }
  }
  run_claimed(pool, items);
  for (LsJob& j : ls_jobs) j.data = j.campaign.take_data();

  // Role fits: the LS sets' (more rows) before the BE sets'.
  items.clear();
  for (LsJob& j : ls_jobs) {
    items.push_back(
        [&j, &config] { core::fit_ls_qos(j.data, config, j.claim.value()); });
    items.push_back([&j, &config] {
      core::fit_ls_power(j.data, config, j.claim.value());
    });
  }
  for (BeJob& j : be_jobs) {
    items.push_back(
        [&j, &config] { core::fit_be_ipc(j.data, config, j.claim.value()); });
    items.push_back([&j, &config] {
      core::fit_be_power(j.data, config, j.claim.value());
    });
  }
  run_claimed(pool, items);

  // Tables: each BE set's as one item; each LS set's QoS table with its
  // slices split across the pool, from this thread.
  const MachineSpec& machine = config.server.machine;
  items.clear();
  for (BeJob& j : be_jobs) {
    items.push_back(
        [&j, &machine] { core::add_be_tables(j.claim.value(), machine); });
  }
  run_claimed(pool, items);
  const bool split = pool != nullptr && pool->size() > 1;
  for (LsJob& j : ls_jobs) {
    core::add_qos_table(j.claim.value(), machine, split ? pool : nullptr);
  }
  for (LsJob& j : ls_jobs) j.claim.publish();
  for (BeJob& j : be_jobs) j.claim.publish();

  // Predictors: cheap assembly over the shared models and tables.
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
