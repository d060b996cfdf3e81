#include "isolation/sim_backend.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace sturgeon::isolation {

std::uint32_t contiguous_mask(int num_ways, int lsb) {
  if (num_ways < 0 || lsb < 0 || num_ways + lsb > 32) {
    throw std::invalid_argument("contiguous_mask: out of range");
  }
  if (num_ways == 0) return 0;
  const std::uint64_t m = ((1ull << num_ways) - 1ull) << lsb;
  return static_cast<std::uint32_t>(m);
}

SimBackend::SimBackend(sim::SimulatedServer& server)
    : server_(server),
      cpuset_(*this),
      cat_(*this),
      freq_(*this),
      rapl_() {
  const MachineSpec& m = server_.machine();
  state_.core_freq_levels.assign(static_cast<std::size_t>(m.num_cores),
                                 m.max_freq_level());
  // Mirror the simulator's initial all-to-LS allocation.
  const Partition init = server_.partition();
  std::vector<int> all_cores;
  for (int c = 0; c < init.ls.cores; ++c) all_cores.push_back(c);
  state_.cpusets[0] = all_cores;
  state_.way_masks[0] = contiguous_mask(init.ls.llc_ways, 0);
}

void SimBackend::observe(const sim::ServerTelemetry& sample) {
  rapl_.set(sample.power_w);
}

Partition SimBackend::derived_partition() const {
  const MachineSpec& m = server_.machine();
  Partition p;
  p.ls.cores = static_cast<int>(state_.cpusets[0].size());
  p.be.cores = static_cast<int>(state_.cpusets[1].size());
  p.ls.llc_ways = std::popcount(state_.way_masks[0]);
  p.be.llc_ways = std::popcount(state_.way_masks[1]);
  const auto slice_level = [&](const std::vector<int>& cores) {
    if (cores.empty()) return 0;
    return state_.core_freq_levels[static_cast<std::size_t>(cores.front())];
  };
  p.ls.freq_level = std::min(slice_level(state_.cpusets[0]),
                             m.max_freq_level());
  p.be.freq_level = std::min(slice_level(state_.cpusets[1]),
                             m.max_freq_level());
  return p;
}

void SimBackend::sync() {
  const Partition p = derived_partition();
  // Intermediate staging states (e.g. LS shrunk before BE grown) may be
  // transiently unappliable; push only once the state is valid. The
  // ResourceEnforcer verifies the final state matches its target.
  const MachineSpec& m = server_.machine();
  const bool appliable =
      p.ls.cores >= 1 && p.ls.llc_ways >= 1 &&
      (p.be.cores == 0 ? true : p.valid_for(m)) &&
      p.ls.cores + p.be.cores <= m.num_cores &&
      p.ls.llc_ways + p.be.llc_ways <= m.llc_ways;
  if (appliable) server_.set_partition(p);
}

void SimBackend::CpusetImpl::set_cpuset(AppId app,
                                        const std::vector<int>& cores) {
  const MachineSpec& m = owner_.server_.machine();
  const auto i = static_cast<std::size_t>(app);
  // Per-core scratch, per thread so that a fleet of nodes holds no copy
  // per node: each write stamps the cores it names with a fresh stamp. A
  // core that already carries it is a repeat, and a core of the other
  // app's cpuset that carries it would be shared. Disjointness is a hard
  // error: Sturgeon never shares cores or ways.
  thread_local std::vector<std::uint64_t> marks;
  thread_local std::uint64_t stamp = 0;
  if (marks.size() < static_cast<std::size_t>(m.num_cores)) {
    marks.resize(static_cast<std::size_t>(m.num_cores), 0);
  }
  ++stamp;
  for (int c : cores) {
    if (c < 0 || c >= m.num_cores) {
      throw std::invalid_argument("set_cpuset: core id out of range");
    }
    std::uint64_t& mark = marks[static_cast<std::size_t>(c)];
    if (mark == stamp) {
      throw std::invalid_argument("set_cpuset: duplicate core id");
    }
    mark = stamp;
  }
  for (int c : owner_.state_.cpusets[1 - i]) {
    if (marks[static_cast<std::size_t>(c)] == stamp) {
      throw std::invalid_argument("SimBackend: overlapping cpusets");
    }
  }
  owner_.state_.cpusets[i] = cores;
  owner_.sync();
}

const std::vector<int>& SimBackend::CpusetImpl::cpuset(AppId app) const {
  return owner_.state_.cpusets[static_cast<std::size_t>(app)];
}

void SimBackend::CatImpl::set_way_mask(AppId app, std::uint32_t mask) {
  const MachineSpec& m = owner_.server_.machine();
  if (m.llc_ways < 32 && (mask >> m.llc_ways) != 0) {
    throw std::invalid_argument("set_way_mask: mask wider than LLC");
  }
  const auto i = static_cast<std::size_t>(app);
  if ((mask & owner_.state_.way_masks[1 - i]) != 0) {
    throw std::invalid_argument("SimBackend: overlapping CAT masks");
  }
  owner_.state_.way_masks[i] = mask;
  owner_.sync();
}

std::uint32_t SimBackend::CatImpl::way_mask(AppId app) const {
  return owner_.state_.way_masks[static_cast<std::size_t>(app)];
}

void SimBackend::FreqImpl::set_frequency_level(const std::vector<int>& cores,
                                               int level) {
  const MachineSpec& m = owner_.server_.machine();
  if (level < 0 || level >= m.num_freq_levels()) {
    throw std::invalid_argument("set_frequency_level: bad P-state");
  }
  // Check every core before staging any, so a rejected write stages
  // nothing.
  for (int c : cores) {
    if (c < 0 || c >= m.num_cores) {
      throw std::invalid_argument("set_frequency_level: core out of range");
    }
  }
  for (int c : cores) {
    owner_.state_.core_freq_levels[static_cast<std::size_t>(c)] = level;
  }
  owner_.sync();
}

int SimBackend::FreqImpl::frequency_level(int core) const {
  const MachineSpec& m = owner_.server_.machine();
  if (core < 0 || core >= m.num_cores) {
    throw std::invalid_argument("frequency_level: core out of range");
  }
  return owner_.state_.core_freq_levels[static_cast<std::size_t>(core)];
}

}  // namespace sturgeon::isolation
