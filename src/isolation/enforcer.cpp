#include "isolation/enforcer.h"

#include <bit>
#include <numeric>
#include <stdexcept>

#include "util/check.h"

namespace sturgeon::isolation {

namespace {

/// Set `out` to the core ids [first, first + count), in its storage.
void assign_run(std::vector<int>& out, int first, int count) {
  out.resize(static_cast<std::size_t>(count));
  std::iota(out.begin(), out.end(), first);
}

/// Whether `cores` is exactly the ids [first, first + count), in order.
bool is_run(const std::vector<int>& cores, int first, int count) {
  if (cores.size() != static_cast<std::size_t>(count)) return false;
  for (int k = 0; k < count; ++k) {
    if (cores[static_cast<std::size_t>(k)] != first + k) return false;
  }
  return true;
}

}  // namespace

ResourceEnforcer::ResourceEnforcer(const MachineSpec& machine,
                                   CpusetController& cpuset,
                                   CatController& cat, FreqDriver& freq)
    : machine_(machine),
      cpuset_(cpuset),
      cat_(cat),
      freq_(freq),
      current_(Partition::all_to_ls(machine)) {}

void ResourceEnforcer::apply(const Partition& target) {
  if (!target.enforceable_on(machine_)) {
    throw std::invalid_argument("ResourceEnforcer::apply: invalid target " +
                                target.to_string(machine_));
  }

  // The core lists live in per-thread scratch, so a fleet of nodes holds
  // no copy per node and a warm apply allocates nothing. BE occupies the
  // top of the core range so LS growth from the bottom never collides
  // mid-transition.
  thread_local std::vector<int> ls_cores;
  thread_local std::vector<int> be_cores;
  assign_run(ls_cores, 0, target.ls.cores);
  assign_run(be_cores, machine_.num_cores - target.be.cores,
             target.be.cores);
  const std::uint32_t ls_mask = contiguous_mask(target.ls.llc_ways, 0);
  const std::uint32_t be_mask = contiguous_mask(
      target.be.llc_ways, machine_.llc_ways - target.be.llc_ways);

  // Layout invariant behind the shrink-before-grow sequencing: the two
  // apps' way masks and core lists must never overlap, or a transition
  // would momentarily co-schedule them on the same resource.
  STURGEON_DCHECK((ls_mask & be_mask) == 0u,
                  "apply: overlapping way masks " << ls_mask << " / "
                                                  << be_mask);
  STURGEON_DCHECK(be_cores.empty() || ls_cores.back() < be_cores.front(),
                  "apply: overlapping core lists");

  // Shrink before grow, per resource type, so co-located apps never hold
  // the same core or way at any point in the sequence.
  const bool ls_core_shrink = target.ls.cores < current_.ls.cores;
  const bool ls_way_shrink = target.ls.llc_ways < current_.ls.llc_ways;

  if (ls_core_shrink) {
    cpuset_.set_cpuset(AppId::kLs, ls_cores);
    cpuset_.set_cpuset(AppId::kBe, be_cores);
  } else {
    cpuset_.set_cpuset(AppId::kBe, be_cores);
    cpuset_.set_cpuset(AppId::kLs, ls_cores);
  }
  actuations_ += 2;

  if (ls_way_shrink) {
    cat_.set_way_mask(AppId::kLs, ls_mask);
    cat_.set_way_mask(AppId::kBe, be_mask);
  } else {
    cat_.set_way_mask(AppId::kBe, be_mask);
    cat_.set_way_mask(AppId::kLs, ls_mask);
  }
  actuations_ += 2;

  freq_.set_frequency_level(ls_cores, target.ls.freq_level);
  ++actuations_;
  if (!be_cores.empty()) {
    freq_.set_frequency_level(be_cores, target.be.freq_level);
    ++actuations_;
  }

  current_ = target;
}

bool ResourceEnforcer::verify(const Partition& target) const {
  const std::vector<int>& ls_cores = cpuset_.cpuset(AppId::kLs);
  const std::vector<int>& be_cores = cpuset_.cpuset(AppId::kBe);
  if (!is_run(ls_cores, 0, target.ls.cores) ||
      !is_run(be_cores, machine_.num_cores - target.be.cores,
              target.be.cores)) {
    return false;
  }
  if (cat_.way_mask(AppId::kLs) != contiguous_mask(target.ls.llc_ways, 0)) {
    return false;
  }
  const std::uint32_t be_mask = contiguous_mask(
      target.be.llc_ways, machine_.llc_ways - target.be.llc_ways);
  if (cat_.way_mask(AppId::kBe) != be_mask) return false;
  for (const int core : ls_cores) {
    if (freq_.frequency_level(core) != target.ls.freq_level) return false;
  }
  for (const int core : be_cores) {
    if (freq_.frequency_level(core) != target.be.freq_level) return false;
  }
  return true;
}

void ResourceEnforcer::resync() {
  // Recover slice sizes from the tools. The reconstructed partition may
  // be an inconsistent mixture (that is the point: a failed apply left
  // one), but it is what the next apply's shrink-before-grow ordering
  // and change detection must be computed against.
  const std::vector<int>& ls_cores = cpuset_.cpuset(AppId::kLs);
  const std::vector<int>& be_cores = cpuset_.cpuset(AppId::kBe);
  Partition actual;
  actual.ls.cores = static_cast<int>(ls_cores.size());
  actual.be.cores = static_cast<int>(be_cores.size());
  actual.ls.llc_ways = std::popcount(cat_.way_mask(AppId::kLs));
  actual.be.llc_ways = std::popcount(cat_.way_mask(AppId::kBe));
  actual.ls.freq_level =
      ls_cores.empty() ? current_.ls.freq_level
                       : freq_.frequency_level(ls_cores.front());
  actual.be.freq_level =
      be_cores.empty() ? current_.be.freq_level
                       : freq_.frequency_level(be_cores.front());
  current_ = actual;
}

}  // namespace sturgeon::isolation
