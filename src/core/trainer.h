// Offline model training (paper Section V-A/V-C).
//
// In the paper, a dedicated cluster's telemetry provides training samples
// of latency / IPC / peak power under different resource configurations.
// Here the SimulatedServer plays the telemetry source: each sample is a
// short *measured* profiling run at one configuration -- the trainer
// observes only what instrumentation would expose (p95 latency, IPC,
// RAPL power), never the simulator internals.
//
// Per-application models (paper Fig 5):
//   LS service:      ls_qos  (classification) -- does <qps, C1, F1, L1>
//                    meet the target?
//                    ls_power (regression) -- LS-solo package peak power
//   BE application:  be_ipc  (regression) -- IPC at <I, C2, F2, L2>
//                    be_power (regression) -- BE slice incremental power
// Power labels use the interval-peak, matching the paper's conservative
// choice (Section V-A). LS models are independent of the co-runner and
// vice versa, so each service/application is profiled once and the
// models are shared across all co-location pairs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/qos_table.h"
#include "ml/factory.h"
#include "sim/server.h"
#include "util/rng.h"
#include "workloads/app_profile.h"

namespace sturgeon::core {

struct TrainerConfig {
  int ls_samples = 500;        ///< uniform profiling configs per LS service
  /// Boundary-focused profiling campaigns: each draws a random (load,
  /// frequency) and binary-searches the measured minimum feasible core
  /// count and way count, labeling every probe. Concentrates samples
  /// where the QoS classifier's decision boundary lives -- the adaptive
  /// sampling a real profiling cluster would run.
  int ls_boundary_searches = 120;
  int be_samples = 400;        ///< profiling configurations per BE app
  int intervals_per_sample = 3;  ///< 1 s measurements per configuration
  /// A configuration is labeled QoS-feasible only if its profiled p95
  /// stays within margin * target. The margin aligns the classifier
  /// boundary with the controller's alpha slack band so the search does
  /// not hand out configurations that sit exactly on the latency cliff
  /// (the paper's conservative-training spirit, Section V-A).
  double qos_label_margin = 0.85;
  std::uint64_t seed = 0xfeedULL;
  sim::ServerConfig server;      ///< profiling-cluster machine (defaults)
};

/// Raw LS profiling dataset. Features are {kQPS, C1, F1, L1}.
struct LsProfilingData {
  std::vector<ml::FeatureRow> x;
  std::vector<int> qos_ok;       // 1 = p95 within margin*target, all runs
  std::vector<double> power_w;   // peak package power, LS solo
};

/// Raw BE profiling dataset. Features are {I, C2, F2, L2}.
struct BeProfilingData {
  std::vector<ml::FeatureRow> x;
  std::vector<double> ipc;
  std::vector<double> power_w;   // peak package power minus idle probe
  double idle_power_w = 0.0;
};

/// Profile an LS service across randomized solo configurations
/// (interference disabled: a quiet profiling cluster, as the paper
/// assumes): an LsCampaign's pieces, run in order on this thread.
LsProfilingData collect_ls_profiling(const LsProfile& ls,
                                     const TrainerConfig& config);

/// One LS profiling campaign split into pieces that may run on different
/// threads: each uniform-sweep probe, and the boundary-search chain,
/// whose probes each depend on the one before. The constructor draws
/// every sweep probe's slice, load and seed in the campaign RNG's order
/// (cores, frequency, ways, load, seed), so the chain starts from the
/// RNG state after the sweep's draws, as in one pass. Each piece writes
/// only its own rows, so the pieces may run concurrently and in any
/// order; take_data() then returns exactly collect_ls_profiling()'s data.
class LsCampaign {
 public:
  /// `ls` must outlive the campaign.
  LsCampaign(const LsProfile& ls, const TrainerConfig& config);

  std::size_t sweep_size() const { return sweep_.size(); }

  /// Run uniform-sweep probe `i` (< sweep_size()) into its row.
  void run_sweep_probe(std::size_t i);

  /// Run the boundary-search chain.
  void run_boundary_searches();

  /// The sweep's rows in sweep order, then the chain's. Call once, after
  /// every piece has run.
  LsProfilingData take_data();

 private:
  struct Probe {
    AppSlice slice;
    double load = 0.0;
    std::uint64_t seed = 0;
  };

  /// Run one probe and write its row at `row` of `out`; returns the
  /// QoS label.
  bool probe(const Probe& p, LsProfilingData& out, std::size_t row);

  const LsProfile& ls_;
  TrainerConfig config_;
  std::vector<Probe> sweep_;
  Rng chain_rng_;  ///< the campaign RNG after the sweep's draws
  LsProfilingData sweep_rows_;
  LsProfilingData chain_rows_;
};

/// Profile a BE application across randomized solo configurations.
BeProfilingData collect_be_profiling(const BeProfile& be,
                                     const TrainerConfig& config);

/// Per-family hold-out scores, the data behind Figs 6 and 7.
using FamilyScores = std::vector<std::pair<ml::ModelKind, double>>;

/// Trained LS-side models. Shared pointers: the same trained models back
/// every co-location pair involving this service.
struct LsModels {
  std::shared_ptr<const ml::Classifier> qos;
  std::shared_ptr<const ml::Regressor> power;
  /// Certified answers of `qos` over QPS [0, kQosTableRange x
  /// profiled_peak_qps] (add_qos_table); null while unbuilt and when
  /// `qos` has no interval pass.
  std::shared_ptr<const LsQosTable> qos_table;
  double profiled_peak_qps = 0.0;  ///< highest QPS in the profiling data
  FamilyScores qos_accuracy;  ///< hold-out accuracy per family (Fig 6)
  FamilyScores power_r2;      ///< hold-out R^2 per family (Fig 7)
};

struct BeModels {
  std::shared_ptr<const ml::Regressor> ipc;
  std::shared_ptr<const ml::Regressor> power;
  /// `ipc` and `power` over every slice of the profiling machine
  /// (add_be_tables); null while unbuilt.
  std::shared_ptr<const BeTables> tables;
  double idle_power_w = 0.0;
  FamilyScores ipc_r2;    ///< Fig 6 (BE performance)
  FamilyScores power_r2;  ///< Fig 7
};

/// Train every paper model family per role, score on a hold-out set, and
/// deploy the best ("the most suitable one", Section V-C): the role fits
/// below in order, on this thread. The LS set also gets its QoS table
/// (add_qos_table) and the BE set its tables (add_be_tables).
LsModels train_ls_models(const LsProfilingData& data,
                         const TrainerConfig& config);
BeModels train_be_models(const BeProfilingData& data,
                         const TrainerConfig& config);

/// One role fit each (paper Fig 5): score every family of the role on
/// a hold-out split and deploy the best, refit on every row. A fit reads
/// `data` and writes only its own members of `models`, so the roles of
/// one set may be fitted concurrently (exp::warm_models does). The QoS
/// fit also records the profiled peak QPS, which bounds its table, and
/// the BE power fit the idle power its labels are measured against.
void fit_ls_qos(const LsProfilingData& data, const TrainerConfig& config,
                LsModels& models);
void fit_ls_power(const LsProfilingData& data, const TrainerConfig& config,
                  LsModels& models);
void fit_be_ipc(const BeProfilingData& data, const TrainerConfig& config,
                BeModels& models);
void fit_be_power(const BeProfilingData& data, const TrainerConfig& config,
                  BeModels& models);

/// The QoS table covers QPS [0, kQosTableRange x profiled peak].
inline constexpr double kQosTableRange = 1.1;

/// Build `models.qos_table` for `machine` (the profiling machine), its
/// slices split across `pool` (nullptr = this thread). A no-op when the
/// table exists or `models.qos` has no interval pass. Must not run on a
/// worker of `pool`.
void add_qos_table(LsModels& models, const MachineSpec& machine,
                   ThreadPool* pool = nullptr);

/// Build `models.tables` for `machine` (the profiling machine) from both
/// fitted models; a no-op when they exist.
void add_be_tables(BeModels& models, const MachineSpec& machine);

/// The model bundle backing one co-location pair's Predictor.
struct TrainedModels {
  std::shared_ptr<const ml::Classifier> ls_qos;
  /// Certified answers of ls_qos (LsModels::qos_table); may be null.
  std::shared_ptr<const LsQosTable> ls_qos_table;
  std::shared_ptr<const ml::Regressor> ls_power;
  std::shared_ptr<const ml::Regressor> be_ipc;
  std::shared_ptr<const ml::Regressor> be_power;
  /// be_ipc and be_power over a machine's slices (BeModels::tables); may
  /// be null, and then the Predictor fills its own.
  std::shared_ptr<const BeTables> be_tables;
  double idle_power_w = 0.0;
};

TrainedModels assemble_models(const LsModels& ls, const BeModels& be);

/// Convenience: profile + train + assemble for one pair.
TrainedModels train_for_pair(const LsProfile& ls, const BeProfile& be,
                             const TrainerConfig& config = {});

/// Lasso feature-selection report: indices of the retained features
/// (paper says all four inputs survive selection).
std::vector<std::size_t> lasso_selected_features(
    const std::vector<ml::FeatureRow>& x, const std::vector<double>& y,
    double lambda = 0.05);

}  // namespace sturgeon::core
