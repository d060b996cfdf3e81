// Data and boxes for the interval-pass tests of the classifiers that have
// one (MlpClassifier, LogisticRegression).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "ml/dataset.h"
#include "util/rng.h"

namespace sturgeon::ml::testing {

inline std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Rows shaped like the LS QoS data, {kQPS, cores, GHz, ways}, labelled
/// by a noisy capacity rule, so the classifier's boundary crosses the box.
struct QosLikeData {
  std::vector<FeatureRow> x;
  std::vector<int> y;
};
inline QosLikeData qos_like_data() {
  QosLikeData d;
  Rng rng(84);
  for (int i = 0; i < 500; ++i) {
    const FeatureRow row{rng.uniform(0.0, 60.0), 1.0 + rng.uniform_int(0, 19),
                         rng.uniform(1.2, 2.2), 1.0 + rng.uniform_int(0, 19)};
    const double capacity = row[1] * row[2] * (1.0 + 0.02 * row[3]);
    d.x.push_back(row);
    d.y.push_back(capacity + rng.normal() >= 0.9 * row[0] ? 1 : 0);
  }
  return d;
}

/// A random box inside the data's range, and a random row inside it.
struct Box {
  FeatureRow lo, hi, inside;
};
inline Box random_box(Rng& rng) {
  const double lo_end[4] = {0.0, 1.0, 1.2, 1.0};
  const double hi_end[4] = {66.0, 20.0, 2.2, 20.0};
  Box b;
  for (int j = 0; j < 4; ++j) {
    // Half the boxes are a point in this feature, as the QoS table's are
    // in all but QPS.
    const double a = rng.uniform(lo_end[j], hi_end[j]);
    const double c =
        rng.uniform(0.0, 1.0) < 0.5 ? a : rng.uniform(lo_end[j], hi_end[j]);
    b.lo.push_back(std::min(a, c));
    b.hi.push_back(std::max(a, c));
    b.inside.push_back(b.lo.back() +
                       rng.uniform(0.0, 1.0) * (b.hi.back() - b.lo.back()));
    b.inside.back() = std::clamp(b.inside.back(), b.lo.back(), b.hi.back());
  }
  return b;
}

}  // namespace sturgeon::ml::testing
