#include "ml/model.h"

namespace sturgeon::ml {

std::vector<double> Regressor::predict_batch(
    const std::vector<FeatureRow>& x) const {
  std::vector<double> out;
  out.reserve(x.size());
  for (const auto& row : x) out.push_back(predict(row));
  return out;
}

std::vector<int> Classifier::predict_batch(
    const std::vector<FeatureRow>& x) const {
  std::vector<int> out;
  out.reserve(x.size());
  for (const auto& row : x) out.push_back(predict(row));
  return out;
}

}  // namespace sturgeon::ml
