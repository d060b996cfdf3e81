#include "ml/knn.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace sturgeon::ml {

namespace detail {
std::vector<std::size_t> knn_indices(const std::vector<FeatureRow>& rows,
                                     const FeatureRow& query, int k) {
  if (rows.empty()) throw std::logic_error("knn_indices: empty training set");
  const std::size_t kk =
      std::min<std::size_t>(static_cast<std::size_t>(k), rows.size());
  std::vector<std::pair<double, std::size_t>> dist;
  dist.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    double d2 = 0.0;
    for (std::size_t j = 0; j < query.size(); ++j) {
      const double dlt = rows[i][j] - query[j];
      d2 += dlt * dlt;
    }
    dist.emplace_back(d2, i);
  }
  std::partial_sort(dist.begin(), dist.begin() + static_cast<long>(kk),
                    dist.end());
  std::vector<std::size_t> out;
  out.reserve(kk);
  for (std::size_t i = 0; i < kk; ++i) out.push_back(dist[i].second);
  return out;
}
}  // namespace detail

KnnRegressor::KnnRegressor(int k, bool weighted) : k_(k), weighted_(weighted) {
  if (k < 1) throw std::invalid_argument("KnnRegressor: k < 1");
}

void KnnRegressor::fit(const DataSet& data) {
  data.validate();
  if (data.empty()) throw std::invalid_argument("KnnRegressor: empty fit");
  scaler_.fit(data.x);
  x_ = scaler_.transform(data.x);
  y_ = data.y;
}

double KnnRegressor::predict(const FeatureRow& row) const {
  if (x_.empty()) throw std::logic_error("KnnRegressor: not fitted");
  const FeatureRow& q = scaled_row(scaler_, row);
  const auto idx = detail::knn_indices(x_, q, k_);
  if (!weighted_) {
    double acc = 0.0;
    for (std::size_t i : idx) acc += y_[i];
    return acc / static_cast<double>(idx.size());
  }
  double wsum = 0.0, acc = 0.0;
  for (std::size_t i : idx) {
    double d2 = 0.0;
    for (std::size_t j = 0; j < q.size(); ++j) {
      const double dlt = x_[i][j] - q[j];
      d2 += dlt * dlt;
    }
    const double w = 1.0 / (std::sqrt(d2) + 1e-9);
    wsum += w;
    acc += w * y_[i];
  }
  return acc / wsum;
}

KnnClassifier::KnnClassifier(int k) : k_(k) {
  if (k < 1) throw std::invalid_argument("KnnClassifier: k < 1");
}

void KnnClassifier::fit(const std::vector<FeatureRow>& x,
                        const std::vector<int>& labels) {
  if (x.empty() || x.size() != labels.size()) {
    throw std::invalid_argument("KnnClassifier::fit: bad shapes");
  }
  scaler_.fit(x);
  x_ = scaler_.transform(x);
  labels_ = labels;
}

int KnnClassifier::predict(const FeatureRow& row) const {
  if (x_.empty()) throw std::logic_error("KnnClassifier: not fitted");
  const auto idx = detail::knn_indices(x_, scaled_row(scaler_, row), k_);
  std::map<int, int> votes;
  for (std::size_t i : idx) ++votes[labels_[i]];
  int best_label = labels_[idx[0]];
  int best_votes = -1;
  for (const auto& [label, count] : votes) {
    if (count > best_votes) {
      best_votes = count;
      best_label = label;
    }
  }
  return best_label;
}

}  // namespace sturgeon::ml
