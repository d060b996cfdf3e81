#include "core/features.h"

namespace sturgeon::core {

ml::FeatureRow ls_features(const MachineSpec& m, double qps_real,
                           const AppSlice& slice) {
  ml::FeatureRow row;
  ls_features(m, qps_real, slice, row);
  return row;
}

void ls_features(const MachineSpec& m, double qps_real, const AppSlice& slice,
                 ml::FeatureRow& row) {
  row.assign({qps_real / 1000.0, static_cast<double>(slice.cores),
              m.freq_at(slice.freq_level),
              static_cast<double>(slice.llc_ways)});
}

ml::FeatureRow be_features(const MachineSpec& m, double input_level,
                           const AppSlice& slice) {
  return {input_level, static_cast<double>(slice.cores),
          m.freq_at(slice.freq_level), static_cast<double>(slice.llc_ways)};
}

}  // namespace sturgeon::core
