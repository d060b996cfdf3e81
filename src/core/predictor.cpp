#include "core/predictor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/features.h"
#include "util/check.h"
#include "util/invariants.h"

namespace sturgeon::core {

namespace {

/// Flattened feature matrix covering grid slices [first, grid.size()), in
/// index order. `row_fn` maps an AppSlice to its FeatureRow, so the BE
/// table fills reuse the exact feature encoding of a scalar query.
template <typename RowFn>
std::vector<double> build_feature_matrix(const SliceGrid& grid,
                                         std::size_t first, RowFn&& row_fn,
                                         std::size_t* stride_out) {
  const std::size_t n = grid.size() - first;
  std::vector<double> xs;
  std::size_t stride = 0;
  for (std::size_t i = first; i < grid.size(); ++i) {
    const ml::FeatureRow row = row_fn(grid.at(i));
    if (i == first) {
      stride = row.size();
      xs.reserve(n * stride);
    }
    STURGEON_DCHECK(row.size() == stride, "feature matrix: ragged row");
    xs.insert(xs.end(), row.begin(), row.end());
  }
  *stride_out = stride;
  return xs;
}

/// The LS feature row of one scalar query, built in per-thread storage
/// so the query allocates nothing.
const ml::FeatureRow& ls_row(const MachineSpec& m, double qps_real,
                             const AppSlice& slice) {
  thread_local ml::FeatureRow row;
  ls_features(m, qps_real, slice, row);
  return row;
}

}  // namespace

TrainedModels Predictor::validate_models(TrainedModels models) {
  if (!models.ls_qos || !models.ls_power || !models.be_ipc ||
      !models.be_power) {
    throw std::invalid_argument("Predictor: missing trained models");
  }
  return models;
}

Predictor::Predictor(const MachineSpec& machine, TrainedModels models)
    : machine_(machine),
      grid_(machine_),
      models_(validate_models(std::move(models))) {
  STURGEON_CHECK(machine_.num_cores >= 1 && machine_.llc_ways >= 1 &&
                     machine_.num_freq_levels() >= 1,
                 "Predictor: degenerate machine spec");
  if (models_.ls_qos_table && models_.ls_qos_table->built_for(machine_)) {
    qos_table_ = models_.ls_qos_table.get();
  }
  be_ = make_be_tables(models_);
}

Predictor::BeTables Predictor::make_be_tables(
    const TrainedModels& models) const {
  // Slices with at least one core are the grid's tail, after the
  // cores == 0 block.
  const std::size_t first = grid_.index(AppSlice{1, 0, 0});
  const std::size_t n = grid_.size() - first;
  std::size_t stride = 0;
  const auto xs = build_feature_matrix(
      grid_, first,
      [&](const AppSlice& s) {
        return be_features(machine_, kNativeInputLevel, s);
      },
      &stride);
  const auto fill = [&](const ml::Regressor& model, const char* what) {
    std::vector<double> table(grid_.size(), 0.0);
    double* out = table.data() + first;
    model.predict_batch(xs.data(), n, stride, out);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = std::max(0.0, ValidateModelOutput(out[i], what,
                                                 /*allow_negative=*/true));
    }
    invocations_.add(n);
    return table;
  };
  BeTables tables;
  tables.power = fill(*models.be_power, "be_power");
  tables.ipc = fill(*models.be_ipc, "be_ipc");
  return tables;
}

bool Predictor::ls_qos_ok(double qps_real, const AppSlice& slice,
                          std::uint64_t* calls) const {
  STURGEON_DCHECK(std::isfinite(qps_real) && qps_real >= 0.0,
                  "ls_qos_ok: qps = " << qps_real);
  if (qos_table_ != nullptr) {
    const int label = qos_table_->lookup(slice, qps_real);
    if (label != LsQosTable::kUnproven) return label == 1;
  }
  invocations_.inc();
  if (calls != nullptr) ++*calls;
  return models_.ls_qos->predict(ls_row(machine_, qps_real, slice)) == 1;
}

double Predictor::ls_power_w(double qps_real, const AppSlice& slice,
                             std::uint64_t* calls) const {
  invocations_.inc();
  if (calls != nullptr) ++*calls;
  // A regression model may extrapolate slightly below zero at the edge of
  // the feature space; that is benign, but non-finite output never is.
  return ValidateModelOutput(
      models_.ls_power->predict(ls_row(machine_, qps_real, slice)),
      "ls_power", /*allow_negative=*/true);
}

double Predictor::be_power_w(const AppSlice& slice) const {
  if (slice.cores == 0) return 0.0;
  return be_.power[grid_.index(slice)];
}

double Predictor::be_ipc(const AppSlice& slice) const {
  if (slice.cores == 0) return 0.0;
  return be_.ipc[grid_.index(slice)];
}

double Predictor::be_throughput(const AppSlice& slice) const {
  if (slice.cores == 0) return 0.0;
  return be_ipc(slice) * static_cast<double>(slice.cores) *
         machine_.freq_at(slice.freq_level);
}

double Predictor::total_power_w(double qps_real, const Partition& p) const {
  return combined_power_w(ls_power_w(qps_real, p.ls), p.be);
}

double Predictor::combined_power_w(double ls_w, const AppSlice& be) const {
  const double total = ls_w + be_power_w(be);
  STURGEON_DCHECK(std::isfinite(total),
                  "total_power_w: non-finite total " << total);
  return total;
}

}  // namespace sturgeon::core
