#include "core/predictor.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/features.h"
#include "util/check.h"
#include "util/invariants.h"

namespace sturgeon::core {

namespace {

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
  if (models_.be_tables && models_.be_tables->built_for(machine_)) {
    be_tables_ = models_.be_tables;
  } else {
    be_tables_ = std::make_shared<const BeTables>(*models_.be_ipc,
                                                  *models_.be_power, machine_);
    invocations_.add(be_tables_->model_calls());
  }
  be_power_w_ = be_tables_->power_w().data();
  be_ipc_ = be_tables_->ipc().data();
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
  return be_power_w_[grid_.index(slice)];
}

double Predictor::be_ipc(const AppSlice& slice) const {
  if (slice.cores == 0) return 0.0;
  return be_ipc_[grid_.index(slice)];
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
