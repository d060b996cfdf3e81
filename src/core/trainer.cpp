#include "core/trainer.h"

#include <algorithm>
#include <stdexcept>

#include "core/features.h"
#include "ml/linear.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sturgeon::core {

namespace {

/// Profiling runs happen on a quiet machine: no interference episodes.
sim::ServerConfig quiet(const sim::ServerConfig& base) {
  sim::ServerConfig cfg = base;
  cfg.interference.enabled = false;
  return cfg;
}

/// The minimal "parking" slice used for the idle side of a solo probe.
AppSlice parking_slice() { return AppSlice{1, 0, 1}; }

void check_config(const TrainerConfig& config) {
  if (config.ls_samples < 10 || config.be_samples < 10 ||
      config.intervals_per_sample < 1 || config.qos_label_margin <= 0.0 ||
      config.qos_label_margin > 1.0) {
    throw std::invalid_argument("TrainerConfig: bad parameters");
  }
}

}  // namespace

LsCampaign::LsCampaign(const LsProfile& ls, const TrainerConfig& config)
    : ls_(ls), config_(config), chain_rng_(config.seed ^ stable_hash(ls.name)) {
  check_config(config_);
  const MachineSpec& machine = config_.server.machine;
  Rng& rng = chain_rng_;
  // Uniform sweep over the configuration space.
  sweep_.resize(static_cast<std::size_t>(config_.ls_samples));
  for (Probe& p : sweep_) {
    p.slice.cores = rng.uniform_int(1, machine.num_cores);
    p.slice.freq_level = rng.uniform_int(0, machine.max_freq_level());
    p.slice.llc_ways = rng.uniform_int(1, machine.llc_ways);
    p.load = rng.uniform(0.05, 1.0);
    p.seed = rng.next_u64();
  }
  sweep_rows_.x.resize(sweep_.size());
  sweep_rows_.qos_ok.resize(sweep_.size());
  sweep_rows_.power_w.resize(sweep_.size());
}

bool LsCampaign::probe(const Probe& p, LsProfilingData& out,
                       std::size_t row) {
  // Any BE profile serves for LS-solo runs (the BE slice stays empty).
  sim::SimulatedServer server(ls_, be_catalog().front(), p.seed,
                              quiet(config_.server));
  Partition part;
  part.ls = p.slice;
  part.be = AppSlice{0, 0, 0};
  server.set_partition(part);
  bool qos_ok = true;
  double peak_power = 0.0;
  for (int i = 0; i < config_.intervals_per_sample; ++i) {
    const auto t = server.step(p.load);
    qos_ok = qos_ok &&
             t.ls.p95_ms <= config_.qos_label_margin * ls_.qos_target_ms;
    peak_power = std::max(peak_power, t.power_w);
  }
  out.x[row] = ls_features(config_.server.machine, p.load * ls_.peak_qps,
                           p.slice);
  out.qos_ok[row] = qos_ok ? 1 : 0;
  out.power_w[row] = peak_power;
  return qos_ok;
}

void LsCampaign::run_sweep_probe(std::size_t i) {
  probe(sweep_.at(i), sweep_rows_, i);
}

void LsCampaign::run_boundary_searches() {
  // Boundary-focused campaigns: binary-search the measured minimum
  // feasible core count at random (load, frequency, ways), then the
  // minimum feasible way count near that core count. Every probe run
  // becomes a labeled sample, concentrating data on the feasibility edge
  // that the controller's own binary searches will walk.
  const MachineSpec& machine = config_.server.machine;
  Rng& rng = chain_rng_;
  LsProfilingData& out = chain_rows_;
  Probe p;
  const auto run = [&] {
    p.seed = rng.next_u64();
    out.x.emplace_back();
    out.qos_ok.push_back(0);
    out.power_w.push_back(0.0);
    return probe(p, out, out.x.size() - 1);
  };
  for (int s = 0; s < config_.ls_boundary_searches; ++s) {
    p.load = rng.uniform(0.05, 1.0);
    p.slice.freq_level = rng.uniform_int(0, machine.max_freq_level());
    p.slice.llc_ways = rng.uniform_int(1, machine.llc_ways);
    int lo = 1, hi = machine.num_cores;
    p.slice.cores = hi;
    if (!run()) continue;  // infeasible even with all cores
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      p.slice.cores = mid;
      if (run()) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    p.slice.cores = std::min(machine.num_cores, hi + rng.uniform_int(0, 2));
    p.slice.llc_ways = machine.llc_ways;
    if (run()) {
      int wlo = 1, whi = machine.llc_ways;
      while (wlo < whi) {
        const int mid = wlo + (whi - wlo) / 2;
        p.slice.llc_ways = mid;
        if (run()) {
          whi = mid;
        } else {
          wlo = mid + 1;
        }
      }
    }
  }
}

LsProfilingData LsCampaign::take_data() {
  LsProfilingData data = std::move(sweep_rows_);
  const auto append = [](auto& to, auto& from) {
    to.insert(to.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
  };
  append(data.x, chain_rows_.x);
  append(data.qos_ok, chain_rows_.qos_ok);
  append(data.power_w, chain_rows_.power_w);
  return data;
}

LsProfilingData collect_ls_profiling(const LsProfile& ls,
                                     const TrainerConfig& config) {
  LsCampaign campaign(ls, config);
  for (std::size_t i = 0; i < campaign.sweep_size(); ++i) {
    campaign.run_sweep_probe(i);
  }
  campaign.run_boundary_searches();
  return campaign.take_data();
}

BeProfilingData collect_be_profiling(const BeProfile& be,
                                     const TrainerConfig& config) {
  check_config(config);
  const MachineSpec machine = config.server.machine;
  // Any LS profile serves for BE-solo runs (zero load, parked slice).
  const LsProfile& dummy_ls = ls_catalog().front();
  BeProfilingData data;
  Rng rng(config.seed ^ stable_hash(be.name) ^ 0xbeULL);

  // Idle probe: both sides parked; the BE incremental power is defined
  // against this baseline.
  {
    sim::SimulatedServer server(dummy_ls, be, rng.next_u64(),
                                quiet(config.server));
    Partition p;
    p.ls = parking_slice();
    p.be = AppSlice{0, 0, 0};
    server.set_partition(p);
    double peak = 0.0;
    for (int i = 0; i < config.intervals_per_sample; ++i) {
      peak = std::max(peak, server.step(0.0).power_w);
    }
    data.idle_power_w = peak;
  }

  for (int s = 0; s < config.be_samples; ++s) {
    AppSlice slice;
    slice.cores = rng.uniform_int(1, machine.num_cores - 1);
    slice.freq_level = rng.uniform_int(0, machine.max_freq_level());
    slice.llc_ways = rng.uniform_int(1, machine.llc_ways - 1);

    sim::SimulatedServer server(dummy_ls, be, rng.next_u64(),
                                quiet(config.server));
    Partition p;
    p.ls = parking_slice();
    p.be = slice;
    server.set_partition(p);

    double peak_power = 0.0;
    double ipc_sum = 0.0;
    for (int i = 0; i < config.intervals_per_sample; ++i) {
      const auto t = server.step(0.0);
      peak_power = std::max(peak_power, t.power_w);
      ipc_sum += t.be_ipc;
    }
    data.x.push_back(be_features(machine, kNativeInputLevel, slice));
    data.ipc.push_back(ipc_sum / config.intervals_per_sample);
    data.power_w.push_back(std::max(0.0, peak_power - data.idle_power_w));
  }
  return data;
}

namespace {

/// Hold-out share for model selection.
constexpr double kTestFraction = 0.25;

/// Split parallel arrays into train/test with one shuffled index set.
struct Split {
  std::vector<std::size_t> train, test;
};
Split make_split(std::size_t n, double test_fraction, std::uint64_t seed) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(idx[i - 1], idx[rng.next_below(i)]);
  }
  const auto n_test = static_cast<std::size_t>(test_fraction * n);
  Split s;
  s.test.assign(idx.begin(), idx.begin() + static_cast<long>(n_test));
  s.train.assign(idx.begin() + static_cast<long>(n_test), idx.end());
  return s;
}

ml::DataSet gather(const std::vector<ml::FeatureRow>& x,
                   const std::vector<double>& y,
                   const std::vector<std::size_t>& idx) {
  ml::DataSet d;
  for (std::size_t i : idx) d.add(x[i], y[i]);
  return d;
}

/// Train every regression family, score on hold-out, return the winner
/// refit on all data.
std::shared_ptr<const ml::Regressor> select_regressor(
    const std::vector<ml::FeatureRow>& x, const std::vector<double>& y,
    const TrainerConfig& config, std::uint64_t salt,
    FamilyScores& scores_out) {
  if (x.empty()) throw std::invalid_argument("select_regressor: no data");
  const Split split =
      make_split(x.size(), kTestFraction, config.seed ^ salt);
  const ml::DataSet train = gather(x, y, split.train);
  const ml::DataSet test = gather(x, y, split.test);
  ml::ModelKind best_kind = ml::ModelKind::kKnn;
  double best_r2 = -1e30;
  for (ml::ModelKind kind : ml::paper_regression_kinds()) {
    auto model = ml::make_regressor(kind, config.seed ^ salt);
    const double r2 = ml::holdout_r2(*model, train, test);
    scores_out.emplace_back(kind, r2);
    if (r2 > best_r2) {
      best_r2 = r2;
      best_kind = kind;
    }
  }
  auto best = ml::make_regressor(best_kind, config.seed ^ salt);
  ml::DataSet all;
  for (std::size_t i = 0; i < x.size(); ++i) all.add(x[i], y[i]);
  best->fit(all);
  return std::shared_ptr<const ml::Regressor>(std::move(best));
}

std::shared_ptr<const ml::Classifier> select_classifier(
    const std::vector<ml::FeatureRow>& x, const std::vector<int>& labels,
    const TrainerConfig& config, std::uint64_t salt,
    FamilyScores& scores_out) {
  if (x.empty()) throw std::invalid_argument("select_classifier: no data");
  const Split split =
      make_split(x.size(), kTestFraction, config.seed ^ salt);
  std::vector<ml::FeatureRow> xtr, xte;
  std::vector<int> ytr, yte;
  for (std::size_t i : split.train) {
    xtr.push_back(x[i]);
    ytr.push_back(labels[i]);
  }
  for (std::size_t i : split.test) {
    xte.push_back(x[i]);
    yte.push_back(labels[i]);
  }
  ml::ModelKind best_kind = ml::ModelKind::kDecisionTree;
  double best_acc = -1.0;
  for (ml::ModelKind kind : ml::paper_classification_kinds()) {
    auto model = ml::make_classifier(kind, config.seed ^ salt);
    const double acc = ml::holdout_accuracy(*model, xtr, ytr, xte, yte);
    scores_out.emplace_back(kind, acc);
    if (acc > best_acc) {
      best_acc = acc;
      best_kind = kind;
    }
  }
  auto best = ml::make_classifier(best_kind, config.seed ^ salt);
  best->fit(x, labels);
  return std::shared_ptr<const ml::Classifier>(std::move(best));
}

}  // namespace

void fit_ls_qos(const LsProfilingData& data, const TrainerConfig& config,
                LsModels& models) {
  models.qos = select_classifier(data.x, data.qos_ok, config, 0xa1,
                                 models.qos_accuracy);
  for (const ml::FeatureRow& row : data.x) {
    models.profiled_peak_qps =
        std::max(models.profiled_peak_qps, row[0] * 1000.0);  // kQPS
  }
}

void fit_ls_power(const LsProfilingData& data, const TrainerConfig& config,
                  LsModels& models) {
  models.power =
      select_regressor(data.x, data.power_w, config, 0xa2, models.power_r2);
}

void fit_be_ipc(const BeProfilingData& data, const TrainerConfig& config,
                BeModels& models) {
  models.ipc = select_regressor(data.x, data.ipc, config, 0xa3,
                                models.ipc_r2);
}

void fit_be_power(const BeProfilingData& data, const TrainerConfig& config,
                  BeModels& models) {
  models.power =
      select_regressor(data.x, data.power_w, config, 0xa4, models.power_r2);
  models.idle_power_w = data.idle_power_w;
}

LsModels train_ls_models(const LsProfilingData& data,
                         const TrainerConfig& config) {
  LsModels models;
  fit_ls_qos(data, config, models);
  fit_ls_power(data, config, models);
  add_qos_table(models, config.server.machine);
  return models;
}

BeModels train_be_models(const BeProfilingData& data,
                         const TrainerConfig& config) {
  BeModels models;
  fit_be_ipc(data, config, models);
  fit_be_power(data, config, models);
  add_be_tables(models, config.server.machine);
  return models;
}

void add_qos_table(LsModels& models, const MachineSpec& machine,
                   ThreadPool* pool) {
  if (models.qos_table || !models.qos->has_interval_pass()) return;
  models.qos_table = std::make_shared<const LsQosTable>(
      *models.qos, machine, kQosTableRange * models.profiled_peak_qps, pool);
}

void add_be_tables(BeModels& models, const MachineSpec& machine) {
  if (models.tables) return;
  models.tables =
      std::make_shared<const BeTables>(*models.ipc, *models.power, machine);
}

TrainedModels assemble_models(const LsModels& ls, const BeModels& be) {
  TrainedModels m;
  m.ls_qos = ls.qos;
  m.ls_qos_table = ls.qos_table;
  m.ls_power = ls.power;
  m.be_ipc = be.ipc;
  m.be_power = be.power;
  m.be_tables = be.tables;
  m.idle_power_w = be.idle_power_w;
  return m;
}

TrainedModels train_for_pair(const LsProfile& ls, const BeProfile& be,
                             const TrainerConfig& config) {
  const auto ls_models = train_ls_models(collect_ls_profiling(ls, config),
                                         config);
  const auto be_models = train_be_models(collect_be_profiling(be, config),
                                         config);
  return assemble_models(ls_models, be_models);
}

std::vector<std::size_t> lasso_selected_features(
    const std::vector<ml::FeatureRow>& x, const std::vector<double>& y,
    double lambda) {
  ml::DataSet d;
  for (std::size_t i = 0; i < x.size(); ++i) d.add(x[i], y[i]);
  ml::LassoRegression lasso(lambda, 3000);
  lasso.fit(d);
  return lasso.selected_features();
}

}  // namespace sturgeon::core
