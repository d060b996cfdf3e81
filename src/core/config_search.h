// Configuration search (paper Section V-B).
//
// The exhaustive space is N_C x N_F x N_L x N_F (40000+ configurations on
// the paper platform). Sturgeon's search exploits monotonicity: BE
// throughput only grows when the LS slice shrinks, so it is enough to
// enumerate configurations with "just-enough" LS resources. For each
// candidate LS core count C1 (starting from the binary-searched minimum),
// the minimum feasible L1 and F1 are binary-searched, the BE slice takes
// the remainder, and the maximum F2 under the power budget is binary-
// searched. Candidates stop once F2 reaches the top P-state; the
// candidate with the highest predicted BE throughput wins. Complexity
// O(N log N) versus O(N^4) exhaustive, as derived in the paper.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/predictor.h"

namespace sturgeon::telemetry {
class Tracer;
}  // namespace sturgeon::telemetry

namespace sturgeon::core {

struct Candidate {
  Partition partition;
  double predicted_throughput = 0.0;
  double predicted_power_w = 0.0;
};

struct SearchResult {
  /// Best feasible partition; all-to-LS fallback when nothing fits the
  /// QoS target (feasible == false) or nothing fits the power budget.
  Partition best;
  bool feasible = false;
  double predicted_throughput = 0.0;
  double predicted_power_w = 0.0;
  std::vector<Candidate> candidates;      ///< all feasible candidates seen
  /// True when some LS core count meets the QoS target but no candidate
  /// is feasible and at least one was rejected by the power budget alone
  /// (no BE P-state fits it): the all-to-LS fallback under a cap.
  bool power_fallback = false;
  /// Model evaluations this search caused: 1 per LS power query and per
  /// LS QoS query the QoS table does not answer, none for a table
  /// lookup. Counted by the search itself, so concurrent
  /// searches on a shared predictor never count each other's calls.
  std::uint64_t model_invocations = 0;
};

class ConfigSearch {
 public:
  /// `power_budget_w` is the node budget (LS-at-peak power, Section
  /// III-B). The predictor is borrowed and must outlive the search.
  ConfigSearch(const Predictor& predictor, double power_budget_w);

  /// Sturgeon's O(N log N) search at real-scale load `qps_real`.
  SearchResult search(double qps_real) const;

  /// Exhaustive O(N^4) reference search over the full grid; used by the
  /// overhead experiment (Section VII-E) and as a search-quality oracle.
  SearchResult exhaustive(double qps_real) const;

  double power_budget_w() const { return budget_w_; }

  /// Retarget the budget (e.g. a cluster coordinator re-capped the node);
  /// applies from the next search. Must be > 0.
  void set_power_budget(double watts);

  /// Emit a "candidate_eval" child span (candidate count, model calls,
  /// winner) through `tracer` on every search. Nullptr switches the
  /// instrumentation off; the tracer must outlive the search.
  void set_tracer(telemetry::Tracer* tracer) { tracer_ = tracer; }

 private:
  // Each helper adds the model evaluations it causes to `calls`.

  /// Smallest C1 in [1, num_cores] meeting QoS with F1, L1 maxed, or
  /// nullopt if even the full machine fails.
  std::optional<int> min_ls_cores(double qps_real, std::uint64_t& calls) const;

  /// Smallest feasible L1 (resp. F1) for a fixed slice; assumes
  /// feasibility is monotone in the searched dimension.
  int min_ls_ways(double qps_real, AppSlice slice, std::uint64_t& calls) const;
  int min_ls_freq(double qps_real, AppSlice slice, std::uint64_t& calls) const;

  /// Largest F2 whose total power (the fixed LS slice's predicted `ls_w`
  /// plus the BE slice's) fits the budget, or nullopt if even the lowest
  /// P-state overshoots. BE power is a table lookup: no model calls.
  std::optional<int> max_be_freq(double ls_w, AppSlice be) const;

  /// Evaluate one candidate LS core count: just-enough ways and
  /// frequency, BE complement, budget-limited F2, predicted throughput
  /// and power; nullopt when the candidate leaves nothing for the BE app
  /// or busts the budget (and then sets `over_budget`).
  std::optional<Candidate> evaluate_candidate(double qps_real, int c1,
                                              std::uint64_t& calls,
                                              bool& over_budget) const;

  const Predictor& predictor_;
  double budget_w_;
  telemetry::Tracer* tracer_ = nullptr;
};

}  // namespace sturgeon::core
