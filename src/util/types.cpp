#include "util/types.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace sturgeon {

MachineSpec MachineSpec::xeon_e5_2630_v4() {
  MachineSpec m;
  m.num_cores = 20;
  m.freq_ghz.clear();
  for (int i = 0; i <= 10; ++i) {
    m.freq_ghz.push_back(1.2 + 0.1 * i);  // 1.2 .. 2.2 GHz
  }
  m.llc_ways = 20;
  m.llc_mb = 25.0;
  m.mem_bw_gbps = 24.0;
  return m;
}

double MachineSpec::freq_at(int level) const {
  if (level < 0 || level >= num_freq_levels()) {
    throw std::out_of_range("MachineSpec::freq_at: level " +
                            std::to_string(level) + " outside P-state table");
  }
  return freq_ghz[static_cast<std::size_t>(level)];
}

int MachineSpec::level_for(double ghz) const {
  if (freq_ghz.empty()) throw std::out_of_range("empty P-state table");
  int best = 0;
  double best_err = std::abs(freq_ghz[0] - ghz);
  for (int i = 1; i < num_freq_levels(); ++i) {
    const double err = std::abs(freq_ghz[static_cast<std::size_t>(i)] - ghz);
    if (err < best_err) {
      best_err = err;
      best = i;
    }
  }
  return best;
}

std::uint64_t MachineSpec::config_space_size() const {
  return static_cast<std::uint64_t>(num_cores) *
         static_cast<std::uint64_t>(num_freq_levels()) *
         static_cast<std::uint64_t>(llc_ways) *
         static_cast<std::uint64_t>(num_freq_levels());
}

AppSlice Allocation::complement(const MachineSpec& m, const AppSlice& held,
                                int freq_level) {
  AppSlice rest;
  rest.cores = std::max(0, m.num_cores - held.cores);
  rest.llc_ways = std::max(0, m.llc_ways - held.llc_ways);
  rest.freq_level = std::clamp(freq_level, 0, m.max_freq_level());
  return rest;
}

Allocation Allocation::of(const Partition& p) {
  Allocation a;
  a.slices = {p.ls, p.be};
  return a;
}

Partition Allocation::to_partition() const {
  if (size() != 2) {
    throw std::invalid_argument(
        "Allocation::to_partition: K = " + std::to_string(size()) +
        " is not pair-shaped");
  }
  return Partition{(*this)[0], (*this)[1]};
}

bool Partition::valid_for(const MachineSpec& m) const {
  const auto slice_ok = [&m](const AppSlice& s) {
    return s.cores >= 1 && s.llc_ways >= 1 && s.freq_level >= 0 &&
           s.freq_level < m.num_freq_levels();
  };
  return slice_ok(ls) && slice_ok(be) && ls.cores + be.cores <= m.num_cores &&
         ls.llc_ways + be.llc_ways <= m.llc_ways;
}

bool Partition::enforceable_on(const MachineSpec& m) const {
  if (be.cores != 0) return valid_for(m);
  return ls.cores >= 1 && ls.cores <= m.num_cores && ls.llc_ways >= 1 &&
         ls.llc_ways <= m.llc_ways && ls.freq_level >= 0 &&
         ls.freq_level < m.num_freq_levels();
}

std::string Partition::to_string(const MachineSpec& m) const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "<%dC, %.1fF, %dL; %dC, %.1fF, %dL>",
                ls.cores, m.freq_at(ls.freq_level), ls.llc_ways, be.cores,
                m.freq_at(be.freq_level), be.llc_ways);
  return buf;
}

Partition Partition::all_to_ls(const MachineSpec& m) {
  Partition p;
  p.ls = AppSlice{m.num_cores, m.max_freq_level(), m.llc_ways};
  p.be = AppSlice{0, 0, 0};
  return p;
}

}  // namespace sturgeon
