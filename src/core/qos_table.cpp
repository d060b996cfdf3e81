#include "core/qos_table.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/features.h"
#include "util/check.h"
#include "util/invariants.h"
#include "util/thread_pool.h"

namespace sturgeon::core {

SliceGrid::SliceGrid(const MachineSpec& machine)
    : max_cores_(machine.num_cores),
      levels_(machine.num_freq_levels()),
      ways_(machine.llc_ways + 1),
      size_(static_cast<std::size_t>(machine.num_cores + 1) *
            static_cast<std::size_t>(levels_) *
            static_cast<std::size_t>(ways_)) {}

void SliceGrid::throw_outside(const AppSlice& slice) {
  throw std::out_of_range("SliceGrid: slice <" + std::to_string(slice.cores) +
                          "C, level " + std::to_string(slice.freq_level) +
                          ", " + std::to_string(slice.llc_ways) +
                          "L> outside the machine");
}

AppSlice SliceGrid::at(std::size_t index) const {
  STURGEON_DCHECK(index < size_,
                  "SliceGrid::at: index " << index << " >= " << size_);
  const auto nf = static_cast<std::size_t>(levels_);
  const auto nw = static_cast<std::size_t>(ways_);
  AppSlice s;
  s.llc_ways = static_cast<int>(index % nw);
  s.freq_level = static_cast<int>((index / nw) % nf);
  s.cores = static_cast<int>(index / (nw * nf));
  return s;
}

namespace {

using Segment = LsQosTable::Segment;

/// Whether `a` and `b` give every slice the same model features.
bool same_features(const MachineSpec& a, const MachineSpec& b) {
  return a.num_cores == b.num_cores && a.llc_ways == b.llc_ways &&
         a.freq_ghz == b.freq_ghz;
}

/// Cover [0, qps_max] of one slice by bisection, left to right: an
/// interval whose box gets a proven label becomes a segment, one that
/// does not splits in two until it is kFloorQps wide and stays unproven.
/// Neighbours with the same label merge as they are emitted.
void cover_slice(const ml::Classifier& qos, const MachineSpec& machine,
                 const AppSlice& slice, double qps_max,
                 std::vector<Segment>& out) {
  struct Span {
    double lo = 0.0;
    double hi = 0.0;
  };
  std::vector<Span> todo{{0.0, qps_max}};
  ml::FeatureRow lo_row, hi_row;
  while (!todo.empty()) {
    const Span s = todo.back();
    todo.pop_back();
    // The corners are the rows a query at either end would build, so
    // the box holds the row of every QPS between them.
    ls_features(machine, s.lo, slice, lo_row);
    ls_features(machine, s.hi, slice, hi_row);
    const std::optional<int> label = qos.box_label(lo_row, hi_row);
    if (!label && s.hi - s.lo > LsQosTable::kFloorQps) {
      const double mid = s.lo + 0.5 * (s.hi - s.lo);
      todo.push_back({mid, s.hi});
      todo.push_back({s.lo, mid});
      continue;
    }
    const int l = label.value_or(LsQosTable::kUnproven);
    if (!out.empty() && out.back().label == l) {
      out.back().end = s.hi;
    } else {
      out.push_back({s.hi, l});
    }
  }
}

}  // namespace

LsQosTable::LsQosTable(const ml::Classifier& qos, const MachineSpec& machine,
                       double qps_max, ThreadPool* pool)
    : machine_(machine), grid_(machine), qps_max_(qps_max) {
  if (!qos.has_interval_pass()) {
    throw std::invalid_argument("LsQosTable: " + qos.name() +
                                " has no interval pass");
  }
  if (!(qps_max > 0.0) || !std::isfinite(qps_max)) {
    throw std::invalid_argument("LsQosTable: bad QPS range");
  }
  std::vector<std::vector<Segment>> per_slice(grid_.size());
  const auto cover = [&](std::size_t i) {
    const AppSlice slice = grid_.at(i);
    if (slice.cores >= 1 && slice.llc_ways >= 1) {
      cover_slice(qos, machine_, slice, qps_max_, per_slice[i]);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(grid_.size(), cover);
  } else {
    for (std::size_t i = 0; i < grid_.size(); ++i) cover(i);
  }
  std::size_t total = 0;
  for (const auto& segs : per_slice) total += segs.size();
  segments_.reserve(total);
  first_.reserve(grid_.size() + 1);
  for (const auto& segs : per_slice) {
    first_.push_back(static_cast<std::uint32_t>(segments_.size()));
    segments_.insert(segments_.end(), segs.begin(), segs.end());
  }
  first_.push_back(static_cast<std::uint32_t>(segments_.size()));
}

std::span<const LsQosTable::Segment> LsQosTable::segments(
    const AppSlice& slice) const {
  if (!grid_.contains(slice)) return {};
  const std::size_t i = grid_.index(slice);
  return {segments_.data() + first_[i], segments_.data() + first_[i + 1]};
}

bool LsQosTable::built_for(const MachineSpec& machine) const {
  return same_features(machine, machine_);
}

BeTables::BeTables(const ml::Regressor& ipc, const ml::Regressor& power,
                   const MachineSpec& machine)
    : machine_(machine) {
  const SliceGrid grid(machine_);
  const auto answer = [](const ml::Regressor& model, const ml::FeatureRow& row,
                         const char* what) {
    return std::max(0.0, ValidateModelOutput(model.predict(row), what,
                                             /*allow_negative=*/true));
  };
  ipc_.assign(grid.size(), 0.0);
  power_w_.assign(grid.size(), 0.0);
  // Slices with at least one core are the grid's tail, after the
  // cores == 0 block.
  const std::size_t first = grid.index(AppSlice{1, 0, 0});
  for (std::size_t i = first; i < grid.size(); ++i) {
    const ml::FeatureRow row =
        be_features(machine_, kNativeInputLevel, grid.at(i));
    power_w_[i] = answer(power, row, "be_power");
    ipc_[i] = answer(ipc, row, "be_ipc");
  }
  model_calls_ = 2 * (grid.size() - first);
}

bool BeTables::built_for(const MachineSpec& machine) const {
  return same_features(machine, machine_);
}

}  // namespace sturgeon::core
