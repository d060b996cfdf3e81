#include "ml/forest.h"

#include <cmath>
#include <map>
#include <stdexcept>

#include "util/check.h"
#include "util/rng.h"

namespace sturgeon::ml {

namespace {
/// Draw a bootstrap sample (with replacement) of (x, y).
void bootstrap(const std::vector<FeatureRow>& x, const std::vector<double>& y,
               Rng& rng, std::vector<FeatureRow>& bx, std::vector<double>& by) {
  const std::size_t n = x.size();
  bx.clear();
  by.clear();
  bx.reserve(n);
  by.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t pick = rng.next_below(n);
    bx.push_back(x[pick]);
    by.push_back(y[pick]);
  }
}

int default_max_features(std::size_t d, bool classification) {
  const double f = classification ? std::sqrt(static_cast<double>(d))
                                  : static_cast<double>(d) / 3.0;
  return std::max(1, static_cast<int>(std::lround(f)));
}
}  // namespace

RandomForestRegressor::RandomForestRegressor(ForestParams params)
    : params_(params) {
  if (params.num_trees < 1) {
    throw std::invalid_argument("RandomForestRegressor: num_trees < 1");
  }
}

void RandomForestRegressor::fit(const DataSet& data) {
  data.validate();
  if (data.empty()) throw std::invalid_argument("RFRegressor: empty fit");
  trees_.assign(static_cast<std::size_t>(params_.num_trees), {});
  Rng rng(params_.seed);
  TreeParams tp = params_.tree;
  if (tp.max_features == 0) {
    tp.max_features = default_max_features(data.num_features(), false);
  }
  std::vector<FeatureRow> bx;
  std::vector<double> by;
  for (auto& tree : trees_) {
    bootstrap(data.x, data.y, rng, bx, by);
    tp.seed = rng.next_u64() | 1;
    tree.fit(bx, by, tp, /*classification=*/false);
  }
}

double RandomForestRegressor::predict(const FeatureRow& row) const {
  if (trees_.empty()) throw std::logic_error("RFRegressor: not fitted");
  double acc = 0.0;
  for (const auto& tree : trees_) acc += tree.predict(row);
  const double mean = acc / static_cast<double>(trees_.size());
  STURGEON_DCHECK(std::isfinite(mean), "RFRegressor: non-finite prediction");
  return mean;
}

RandomForestClassifier::RandomForestClassifier(ForestParams params)
    : params_(params) {
  if (params.num_trees < 1) {
    throw std::invalid_argument("RandomForestClassifier: num_trees < 1");
  }
}

void RandomForestClassifier::fit(const std::vector<FeatureRow>& x,
                                 const std::vector<int>& labels) {
  if (x.empty() || x.size() != labels.size()) {
    throw std::invalid_argument("RFClassifier::fit: bad shapes");
  }
  trees_.assign(static_cast<std::size_t>(params_.num_trees), {});
  Rng rng(params_.seed);
  TreeParams tp = params_.tree;
  if (tp.max_features == 0) {
    tp.max_features = default_max_features(x[0].size(), true);
  }
  std::vector<double> y(labels.begin(), labels.end());
  std::vector<FeatureRow> bx;
  std::vector<double> by;
  for (auto& tree : trees_) {
    bootstrap(x, y, rng, bx, by);
    tp.seed = rng.next_u64() | 1;
    tree.fit(bx, by, tp, /*classification=*/true);
  }
}

int RandomForestClassifier::predict(const FeatureRow& row) const {
  if (trees_.empty()) throw std::logic_error("RFClassifier: not fitted");
  std::map<int, int> votes;
  for (const auto& tree : trees_) {
    ++votes[static_cast<int>(std::lround(tree.predict(row)))];
  }
  int best = 0, best_count = -1;
  for (const auto& [label, count] : votes) {
    if (count > best_count) {
      best_count = count;
      best = label;
    }
  }
  return best;
}

}  // namespace sturgeon::ml
