#include "core/config_search.h"

#include <cmath>
#include <stdexcept>

#include "telemetry/trace.h"
#include "util/check.h"
#include "util/invariants.h"

namespace sturgeon::core {

namespace {

// Candidate-sweep attributes shared by both searches, so Sturgeon
// and the exhaustive oracle emit the same span schema.
void annotate_sweep(telemetry::Span& span, const SearchResult& r) {
  span.attr("candidates", static_cast<std::uint64_t>(r.candidates.size()))
      .attr("feasible", r.feasible)
      .attr("model_calls", r.model_invocations)
      .attr("predicted_throughput", r.predicted_throughput)
      .attr("predicted_power_w", r.predicted_power_w);
}

// Postcondition of both searches: the chosen partition is
// expressible on the machine, and a feasible result respects the budget
// its own power prediction was admitted under.
void check_search_result(const MachineSpec& m, const SearchResult& r,
                         double budget_w, const char* where) {
  ValidateConfig(m, r.best, where);
  if (r.feasible) {
    STURGEON_DCHECK(r.best.be.cores >= 1,
                    "" << where << ": feasible result with empty BE slice");
    STURGEON_DCHECK(std::isfinite(r.predicted_power_w) &&
                        r.predicted_power_w <= budget_w,
                    "" << where << ": predicted power " << r.predicted_power_w
                       << " W exceeds budget " << budget_w << " W");
    STURGEON_DCHECK(std::isfinite(r.predicted_throughput) &&
                        r.predicted_throughput >= 0.0,
                    "" << where << ": bad predicted throughput "
                       << r.predicted_throughput);
  }
}

}  // namespace

ConfigSearch::ConfigSearch(const Predictor& predictor, double power_budget_w)
    : predictor_(predictor), budget_w_(power_budget_w) {
  if (!std::isfinite(power_budget_w) || power_budget_w <= 0.0) {
    throw std::invalid_argument("ConfigSearch: bad power budget");
  }
}

void ConfigSearch::set_power_budget(double watts) {
  if (!std::isfinite(watts) || watts <= 0.0) {
    throw std::invalid_argument("ConfigSearch: bad power budget");
  }
  budget_w_ = watts;
}

std::optional<int> ConfigSearch::min_ls_cores(double qps_real,
                                              std::uint64_t& calls) const {
  STURGEON_CHECK(std::isfinite(qps_real) && qps_real >= 0.0,
                 "min_ls_cores: qps = " << qps_real);
  const MachineSpec& m = predictor_.machine();
  AppSlice probe{m.num_cores, m.max_freq_level(), m.llc_ways};
  if (!predictor_.ls_qos_ok(qps_real, probe, &calls)) return std::nullopt;
  int lo = 1, hi = m.num_cores;  // invariant: hi feasible
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    probe.cores = mid;
    if (predictor_.ls_qos_ok(qps_real, probe, &calls)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

int ConfigSearch::min_ls_ways(double qps_real, AppSlice slice,
                              std::uint64_t& calls) const {
  const MachineSpec& m = predictor_.machine();
  int lo = 1, hi = m.llc_ways;  // caller guarantees hi feasible
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    slice.llc_ways = mid;
    if (predictor_.ls_qos_ok(qps_real, slice, &calls)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

int ConfigSearch::min_ls_freq(double qps_real, AppSlice slice,
                              std::uint64_t& calls) const {
  const MachineSpec& m = predictor_.machine();
  int lo = 0, hi = m.max_freq_level();  // caller guarantees hi feasible
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    slice.freq_level = mid;
    if (predictor_.ls_qos_ok(qps_real, slice, &calls)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  STURGEON_DCHECK_RANGE(hi, 0, m.max_freq_level());
  return hi;
}

std::optional<int> ConfigSearch::max_be_freq(double ls_w, AppSlice be) const {
  const MachineSpec& m = predictor_.machine();
  const auto fits = [&](int level) {
    be.freq_level = level;
    return predictor_.combined_power_w(ls_w, be) <= budget_w_;
  };
  if (!fits(0)) return std::nullopt;
  int lo = 0, hi = m.max_freq_level();  // invariant: lo feasible
  while (lo < hi) {
    const int mid = lo + (hi - lo + 1) / 2;
    if (fits(mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

std::optional<Candidate> ConfigSearch::evaluate_candidate(
    double qps_real, int c1, std::uint64_t& calls, bool& over_budget) const {
  const MachineSpec& m = predictor_.machine();
  AppSlice ls{c1, m.max_freq_level(), m.llc_ways};
  // Just-enough ways, then just-enough frequency (Section V-B order).
  ls.llc_ways = min_ls_ways(qps_real, ls, calls);
  if (ls.llc_ways >= m.llc_ways) return std::nullopt;  // nothing left for BE
  ls.freq_level = min_ls_freq(qps_real, ls, calls);

  AppSlice be = Allocation::complement(m, ls, 0);
  if (be.cores < 1 || be.llc_ways < 1) return std::nullopt;
  // The LS slice is fixed from here on: predict its power once.
  const double ls_w = predictor_.ls_power_w(qps_real, ls, &calls);
  const auto f2 = max_be_freq(ls_w, be);
  if (!f2) {  // power infeasible even at the bottom P-state
    over_budget = true;
    return std::nullopt;
  }
  be.freq_level = *f2;

  Candidate cand;
  cand.partition = Partition{ls, be};
  cand.predicted_throughput = predictor_.be_throughput(be);
  cand.predicted_power_w = predictor_.combined_power_w(ls_w, be);
  return cand;
}

SearchResult ConfigSearch::search(double qps_real) const {
  const MachineSpec& m = predictor_.machine();
  telemetry::Span span = tracer_ != nullptr
                             ? tracer_->start_span("candidate_eval")
                             : telemetry::Span{};
  SearchResult result;
  result.best = Partition::all_to_ls(m);

  std::uint64_t& calls = result.model_invocations;
  const auto c1_min = min_ls_cores(qps_real, calls);
  if (!c1_min) {
    // Even the whole machine cannot hold QoS: keep everything on the LS
    // service (Algorithm 1's conservative initial allocation).
    annotate_sweep(span, result);
    return result;
  }

  // Sweep candidate LS core counts upward from the minimum; each candidate
  // gives the BE side fewer cores but (potentially) a higher frequency.
  result.candidates.reserve(
      static_cast<std::size_t>(m.num_cores - *c1_min));
  bool over_budget = false;
  for (int c1 = *c1_min; c1 < m.num_cores; ++c1) {
    const auto cand = evaluate_candidate(qps_real, c1, calls, over_budget);
    if (!cand) continue;
    result.candidates.push_back(*cand);

    if (!result.feasible ||
        cand->predicted_throughput > result.predicted_throughput) {
      result.feasible = true;
      result.best = cand->partition;
      result.predicted_throughput = cand->predicted_throughput;
      result.predicted_power_w = cand->predicted_power_w;
    }
    // Once the BE slice already runs at the top P-state, shrinking it
    // further cannot raise its frequency any more: stop (Section V-B).
    if (cand->partition.be.freq_level == m.max_freq_level()) break;
  }
  result.power_fallback = !result.feasible && over_budget;

  annotate_sweep(span, result);
  check_search_result(m, result, budget_w_, "ConfigSearch::search");
  return result;
}

SearchResult ConfigSearch::exhaustive(double qps_real) const {
  const MachineSpec& m = predictor_.machine();
  telemetry::Span span = tracer_ != nullptr
                             ? tracer_->start_span("candidate_eval")
                             : telemetry::Span{};
  SearchResult result;
  result.best = Partition::all_to_ls(m);
  std::uint64_t& calls = result.model_invocations;

  for (int c1 = 1; c1 < m.num_cores; ++c1) {
    for (int f1 = 0; f1 <= m.max_freq_level(); ++f1) {
      for (int l1 = 1; l1 < m.llc_ways; ++l1) {
        const AppSlice ls{c1, f1, l1};
        if (!predictor_.ls_qos_ok(qps_real, ls, &calls)) continue;
        const double ls_w = predictor_.ls_power_w(qps_real, ls, &calls);
        for (int f2 = m.max_freq_level(); f2 >= 0; --f2) {
          AppSlice be = Allocation::complement(m, ls, f2);
          Partition p{ls, be};
          const double power = predictor_.combined_power_w(ls_w, be);
          if (power > budget_w_) continue;
          const double thr = predictor_.be_throughput(be);
          if (!result.feasible || thr > result.predicted_throughput) {
            result.feasible = true;
            result.best = p;
            result.predicted_throughput = thr;
            result.predicted_power_w = power;
          }
          break;  // lower F2 can only reduce throughput
        }
      }
    }
  }
  annotate_sweep(span, result);
  check_search_result(m, result, budget_w_, "ConfigSearch::exhaustive");
  return result;
}

}  // namespace sturgeon::core
