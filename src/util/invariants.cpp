#include "util/invariants.h"

#include <cmath>

#include "util/check.h"

namespace sturgeon {

namespace {

void validate_slice(const MachineSpec& m, const AppSlice& s, const char* where,
                    const char* side) {
  STURGEON_CHECK(s.cores >= 1 && s.cores <= m.num_cores,
                 "" << where << ": " << side << " cores = " << s.cores
                    << " outside [1, " << m.num_cores << "]");
  STURGEON_CHECK(s.llc_ways >= 1 && s.llc_ways <= m.llc_ways,
                 "" << where << ": " << side << " ways = " << s.llc_ways
                    << " outside [1, " << m.llc_ways << "]");
  STURGEON_CHECK(s.freq_level >= 0 && s.freq_level < m.num_freq_levels(),
                 "" << where << ": " << side << " P-state = " << s.freq_level
                    << " outside [0, " << m.max_freq_level() << "]");
}

}  // namespace

void ValidateConfig(const MachineSpec& m, const Partition& p,
                    const char* where, bool allow_empty_be) {
  validate_slice(m, p.ls, where, "LS");
  if (p.be.cores == 0) {
    STURGEON_CHECK(allow_empty_be,
                   "" << where << ": empty BE slice not allowed here");
    return;
  }
  validate_slice(m, p.be, where, "BE");
  STURGEON_CHECK(p.ls.cores + p.be.cores <= m.num_cores,
                 "" << where << ": core total " << p.ls.cores + p.be.cores
                    << " exceeds " << m.num_cores);
  STURGEON_CHECK(p.ls.llc_ways + p.be.llc_ways <= m.llc_ways,
                 "" << where << ": way total " << p.ls.llc_ways + p.be.llc_ways
                    << " exceeds " << m.llc_ways);
}

void ValidatePowerBudget(double budget_w, const char* where) {
  STURGEON_CHECK(std::isfinite(budget_w) && budget_w > 0.0,
                 "" << where << ": power budget " << budget_w
                    << " W must be finite and > 0");
}

double ValidateModelOutput(double value, const char* what,
                           bool allow_negative) {
  STURGEON_CHECK(std::isfinite(value),
                 "" << what << ": model prediction is not finite");
  if (!allow_negative) {
    STURGEON_CHECK(value >= 0.0,
                   "" << what << ": model prediction " << value << " < 0");
  }
  return value;
}

}  // namespace sturgeon
