// Workload churn: the job population the fleet engine manages online.
//
// Without churn the fleet pins one LS/BE pair per node forever; real
// datacenters see best-effort work arrive, run and finish continuously
// (CuttleSys manages exactly such a churning co-scheduled population).
// The ChurnEngine models that: a seeded deterministic arrival process
// emits Jobs whose identity (BE application) comes from the workload
// catalog and whose size is a lognormal draw in *normalized BE
// throughput-seconds* -- the unit the simulator's BE slices produce.
// Jobs are placed online onto nodes (fleet/placer.h), occupy one BE
// slot each, drain at the hosting node's measured normalized BE
// throughput shared equally across its active jobs, and leave when
// their remaining work hits zero. A node whose last job leaves goes
// LS-only (ClusterNode::set_be_active(false)) and may then quiesce.
//
// Completion-time model: a job's finish epoch is a function of the
// co-location decisions made while it ran -- power caps, governor
// throttling and LS load all move the node's BE throughput, so the
// same job finishes later on a power-starved node. This is what makes
// the churn layer a completion-time-aware evaluation, not just an
// arrival counter.
//
// Determinism: one Rng stream (derive_seed(fleet seed, kChurnStream))
// drives every draw; the engine is only ever called from the engine's
// sequential phases, so job timelines are bit-identical across worker
// thread counts.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "util/rng.h"

namespace sturgeon::fleet {

/// Stream label for the churn Rng (distinct from node seeds, which
/// derive directly from the cluster seed and the node index).
inline constexpr std::uint64_t kChurnStream = 0x466c656574ULL;  // "Fleet"

struct ChurnConfig {
  bool enabled = false;
  /// Mean fleet-wide job arrivals per epoch (exponential interarrivals).
  double arrival_rate_per_epoch = 1.0;
  /// Mean job size in normalized BE throughput-seconds (a size-30 job
  /// takes 30 epochs on one full machine's worth of BE throughput).
  double mean_size_norm_s = 30.0;
  double size_cv = 1.0;  ///< lognormal coefficient of variation
  /// BE slots per node: how many jobs may share a node's BE slice.
  int slots_per_node = 4;
  /// Full fleet: queue arrivals FIFO (true) or reject them (false).
  bool queue_when_full = true;
  /// Migrate one job off a node after this many consecutive stepped
  /// epochs of QoS violation or governor throttling (0 = never).
  int migrate_after_epochs = 5;
};

struct Job {
  std::uint64_t id = 0;
  int be_index = 0;  ///< index into the BE workload catalog (identity)
  double size_norm_s = 0.0;
  double remaining_norm_s = 0.0;
  int arrival_epoch = 0;
  int start_epoch = -1;   ///< first epoch on a node (-1 while queued)
  int finish_epoch = -1;  ///< completion epoch (-1 while running)
  int node = -1;          ///< hosting node (-1 while queued/rejected)
  int migrations = 0;
};

struct ChurnStats {
  std::uint64_t submitted = 0;
  std::uint64_t placed = 0;
  std::uint64_t completed = 0;
  std::uint64_t migrated = 0;
  std::uint64_t rejected = 0;
  std::size_t queue_peak = 0;
  /// Sum over completed jobs of (finish - arrival + 1) epochs.
  double completion_epochs_sum = 0.0;
};

class ChurnEngine {
 public:
  /// `num_be_profiles` sizes the catalog-identity draw; `seed` is the
  /// fleet seed (the engine forks its own stream).
  ChurnEngine(ChurnConfig config, std::uint64_t seed,
              std::size_t num_be_profiles, std::size_t num_nodes);

  const ChurnConfig& config() const { return config_; }
  const ChurnStats& stats() const { return stats_; }

  /// Epoch of the next pending arrival, or -1 when disabled / the
  /// process has not been primed. Monotone non-decreasing.
  int next_arrival_epoch() const;

  /// Emit every job whose arrival time falls in epoch `t` (advancing
  /// the arrival clock past it) and return their ids. Jobs start
  /// unplaced; the caller routes them through the placer.
  std::vector<std::uint64_t> arrive(int t);

  Job& job(std::uint64_t id) { return jobs_[id]; }
  const Job& job(std::uint64_t id) const { return jobs_[id]; }

  /// Active job ids on `node`, in assignment order (newest last).
  const std::vector<std::uint64_t>& active_on(int node) const {
    return active_[static_cast<std::size_t>(node)];
  }

  // -- placement / lifecycle (engine-sequential only) -----------------
  void assign(std::uint64_t id, int node, int t);
  void enqueue(std::uint64_t id);
  void reject(std::uint64_t id);
  bool has_queued() const { return !pending_.empty(); }
  std::size_t queued() const { return pending_.size(); }
  /// Pop the oldest queued job id (must exist).
  std::uint64_t pop_queued();

  /// Advance every active job on `node` through epochs
  /// [first_epoch, last_epoch] at total normalized BE rate
  /// `rate_norm_per_epoch`, shared equally across the jobs active at
  /// the window start. Jobs whose remaining work drains inside the
  /// window complete at their per-job epoch and are removed; returns
  /// completed ids ordered by (finish_epoch, id).
  std::vector<std::uint64_t> accrue(int node, double rate_norm_per_epoch,
                                    int first_epoch, int last_epoch);

  /// Predicted earliest completion epoch among `node`'s active jobs if
  /// the node holds rate `rate_norm_per_epoch` from epoch t+1 on
  /// (equal sharing, frozen rate) -- the job-finish wake the sleeping
  /// node schedules. Returns -1 with no jobs or no rate.
  int earliest_finish(int node, double rate_norm_per_epoch, int t) const;

  /// Move `id` from its node to `to` at epoch `t` (slot bookkeeping is
  /// the caller's; this updates the job and the active lists).
  void migrate(std::uint64_t id, int to, int t);

  /// Jobs still running across the whole fleet.
  std::size_t active_total() const { return active_total_; }
  double mean_completion_epochs() const {
    return stats_.completed == 0
               ? 0.0
               : stats_.completion_epochs_sum /
                     static_cast<double>(stats_.completed);
  }

 private:
  void complete(std::uint64_t id, int t);
  void detach(std::uint64_t id);

  ChurnConfig config_;
  Rng rng_;
  std::size_t num_be_profiles_;
  double next_arrival_time_ = -1.0;  ///< continuous arrival clock
  std::vector<Job> jobs_;            ///< indexed by id
  std::vector<std::vector<std::uint64_t>> active_;  ///< per node
  std::deque<std::uint64_t> pending_;
  std::size_t active_total_ = 0;
  ChurnStats stats_;
};

}  // namespace sturgeon::fleet
