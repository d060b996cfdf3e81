#include "ml/dataset.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/check.h"

namespace sturgeon::ml {

void DataSet::add(FeatureRow row, double target) {
  if (!x.empty() && row.size() != x[0].size()) {
    throw std::invalid_argument("DataSet::add: feature arity mismatch");
  }
  x.push_back(std::move(row));
  y.push_back(target);
}

void DataSet::validate() const {
  if (x.size() != y.size()) {
    throw std::invalid_argument("DataSet: |x| != |y|");
  }
  if (!x.empty()) {
    const std::size_t arity = x[0].size();
    for (const auto& row : x) {
      if (row.size() != arity) {
        throw std::invalid_argument("DataSet: ragged feature rows");
      }
    }
  }
}

SplitResult train_test_split(const DataSet& data, double test_fraction,
                             std::uint64_t seed) {
  data.validate();
  if (test_fraction <= 0.0 || test_fraction >= 1.0) {
    throw std::invalid_argument("train_test_split: fraction out of (0,1)");
  }
  std::vector<std::size_t> idx(data.size());
  std::iota(idx.begin(), idx.end(), 0);
  Rng rng(seed);
  for (std::size_t i = idx.size(); i > 1; --i) {
    std::swap(idx[i - 1], idx[rng.next_below(i)]);
  }
  const auto n_test = static_cast<std::size_t>(
      std::round(test_fraction * static_cast<double>(data.size())));
  SplitResult out;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    auto& dst = i < n_test ? out.test : out.train;
    dst.add(data.x[idx[i]], data.y[idx[i]]);
  }
  return out;
}

std::vector<std::vector<std::size_t>> kfold_indices(std::size_t n, int k,
                                                    std::uint64_t seed) {
  if (k < 2 || static_cast<std::size_t>(k) > n) {
    throw std::invalid_argument("kfold_indices: bad k");
  }
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  Rng rng(seed);
  for (std::size_t i = idx.size(); i > 1; --i) {
    std::swap(idx[i - 1], idx[rng.next_below(i)]);
  }
  std::vector<std::vector<std::size_t>> folds(static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < n; ++i) {
    folds[i % static_cast<std::size_t>(k)].push_back(idx[i]);
  }
  return folds;
}

DataSet subset(const DataSet& data, const std::vector<std::size_t>& idx) {
  DataSet out;
  for (std::size_t i : idx) {
    if (i >= data.size()) throw std::out_of_range("subset: index");
    out.add(data.x[i], data.y[i]);
  }
  return out;
}

void StandardScaler::fit(const std::vector<FeatureRow>& x) {
  if (x.empty()) throw std::invalid_argument("StandardScaler::fit: empty");
  const std::size_t d = x[0].size();
  mean_.assign(d, 0.0);
  stddev_.assign(d, 0.0);
  for (const auto& row : x) {
    if (row.size() != d) {
      throw std::invalid_argument("StandardScaler::fit: ragged rows");
    }
    for (std::size_t j = 0; j < d; ++j) mean_[j] += row[j];
  }
  for (auto& m : mean_) m /= static_cast<double>(x.size());
  for (const auto& row : x) {
    for (std::size_t j = 0; j < d; ++j) {
      const double dlt = row[j] - mean_[j];
      stddev_[j] += dlt * dlt;
    }
  }
  for (auto& s : stddev_) {
    s = std::sqrt(s / static_cast<double>(x.size()));
    if (s < 1e-12) s = 0.0;  // constant feature
  }
}

FeatureRow StandardScaler::transform(const FeatureRow& row) const {
  if (!fitted()) throw std::logic_error("StandardScaler: not fitted");
  if (row.size() != mean_.size()) {
    throw std::invalid_argument("StandardScaler::transform: arity mismatch");
  }
  FeatureRow out(row.size());
  for (std::size_t j = 0; j < row.size(); ++j) {
    out[j] = stddev_[j] == 0.0 ? 0.0 : (row[j] - mean_[j]) / stddev_[j];
  }
  return out;
}

void StandardScaler::transform_into(const double* row, double* out) const {
  if (!fitted()) throw std::logic_error("StandardScaler: not fitted");
  for (std::size_t j = 0; j < mean_.size(); ++j) {
    out[j] = stddev_[j] == 0.0 ? 0.0 : (row[j] - mean_[j]) / stddev_[j];
  }
}

std::vector<FeatureRow> StandardScaler::transform(
    const std::vector<FeatureRow>& x) const {
  std::vector<FeatureRow> out;
  out.reserve(x.size());
  for (const auto& row : x) out.push_back(transform(row));
  return out;
}

const FeatureRow& scaled_row(const StandardScaler& scaler,
                             const FeatureRow& row) {
  if (!scaler.fitted()) throw std::logic_error("StandardScaler: not fitted");
  if (row.size() != scaler.dim()) {
    throw std::invalid_argument("StandardScaler::transform: arity mismatch");
  }
  thread_local FeatureRow scaled;
  scaled.resize(row.size());
  scaler.transform_into(row.data(), scaled.data());
  return scaled;
}

ScaledBox scaled_box(const StandardScaler& scaler, const FeatureRow& lo,
                     const FeatureRow& hi) {
  if (!scaler.fitted()) throw std::logic_error("StandardScaler: not fitted");
  if (lo.size() != scaler.dim() || hi.size() != scaler.dim()) {
    throw std::invalid_argument("StandardScaler::transform: arity mismatch");
  }
  for (std::size_t j = 0; j < lo.size(); ++j) {
    STURGEON_DCHECK(lo[j] <= hi[j], "scaled_box: empty box in feature "
                                        << j << ": " << lo[j] << " > "
                                        << hi[j]);
  }
  thread_local FeatureRow scaled_lo, scaled_hi;
  scaled_lo.resize(lo.size());
  scaled_hi.resize(hi.size());
  scaler.transform_into(lo.data(), scaled_lo.data());
  scaler.transform_into(hi.data(), scaled_hi.data());
  return {scaled_lo, scaled_hi};
}

}  // namespace sturgeon::ml
