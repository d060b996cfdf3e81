// Shared resource-allocation types used across the Sturgeon codebase.
//
// The paper co-locates exactly one latency-sensitive (LS) service with one
// best-effort (BE) application; a configuration <C1,F1,L1; C2,F2,L2>
// assigns C1 cores at frequency F1 and L1 LLC ways to the LS service, and
// C2/F2/L2 to the BE application. Partition is that configuration and the
// currency of every controller, the isolation backend and the simulator.
// Allocation, a list of per-application slices, survives only as the
// argument of Policy's K = 2 adapter overload and as the home of the
// complement helper; Allocation::of / to_partition bridge it exactly.
// Frequencies are carried as indices into the machine's P-state table so
// that controllers can do integer binary search over them.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace sturgeon {

/// Static description of the managed server.
///
/// Mirrors Table II of the paper (Xeon E5-2630 v4): 20 logical cores,
/// DVFS range 1.2-2.2 GHz, 20-way 25 MB LLC. All Sturgeon components are
/// parameterized on this spec; nothing hard-codes the paper platform.
struct MachineSpec {
  int num_cores = 20;              ///< schedulable logical cores
  std::vector<double> freq_ghz;    ///< available P-states, ascending
  int llc_ways = 20;               ///< allocatable LLC ways (CAT granularity)
  double llc_mb = 25.0;            ///< total LLC capacity
  double mem_bw_gbps = 24.0;       ///< usable memory bandwidth (unmanaged)

  /// The paper's evaluation platform.
  static MachineSpec xeon_e5_2630_v4();

  int num_freq_levels() const { return static_cast<int>(freq_ghz.size()); }
  int max_freq_level() const { return num_freq_levels() - 1; }
  double min_freq_ghz() const { return freq_ghz.front(); }
  double max_freq_ghz() const { return freq_ghz.back(); }

  /// Frequency in GHz for a P-state index; throws std::out_of_range.
  double freq_at(int level) const;

  /// Closest P-state index for a GHz value (clamped to the table).
  int level_for(double ghz) const;

  /// Total size of the <C1,F1,L1;C2,F2,L2> search space, as counted in
  /// Section V-B of the paper (cores x freq x ways x freq).
  std::uint64_t config_space_size() const;
};

/// Resources assigned to one co-located application.
struct AppSlice {
  int cores = 0;
  int freq_level = 0;  ///< index into MachineSpec::freq_ghz
  int llc_ways = 0;

  bool operator==(const AppSlice&) const = default;
};

/// What kind of co-scheduled workload a slice serves.
enum class WorkloadKind {
  kLatencySensitive,  ///< has a tail-latency QoS target
  kBestEffort,        ///< throughput-oriented
};

/// Per-application slices in LS-then-BE order: the argument type of
/// Policy's adapter overload, which accepts exactly K = 2.
struct Allocation {
  std::vector<AppSlice> slices;

  Allocation() = default;
  explicit Allocation(std::vector<AppSlice> s) : slices(std::move(s)) {}

  int size() const { return static_cast<int>(slices.size()); }
  const AppSlice& operator[](int i) const {
    return slices[static_cast<std::size_t>(i)];
  }

  /// Every core/way `held` does not hold, at `freq_level` clamped to the
  /// P-state table: the other side of a pair split.
  static AppSlice complement(const MachineSpec& m, const AppSlice& held,
                             int freq_level);

  /// Exact K=2 bridges to the pair world.
  static Allocation of(const struct Partition& p);
  struct Partition to_partition() const;  ///< throws unless size() == 2
};

/// A full pair co-location configuration <C1,F1,L1; C2,F2,L2>: the
/// working currency of the controllers, the isolation backend and the
/// simulator.
struct Partition {
  AppSlice ls;  ///< latency-sensitive service share
  AppSlice be;  ///< best-effort application share

  bool operator==(const Partition&) const = default;

  /// True iff the partition is expressible on `m`: per-slice bounds hold,
  /// core and way totals fit, and both slices are non-empty.
  bool valid_for(const MachineSpec& m) const;

  /// True iff the isolation stack can program the partition on `m`:
  /// valid_for(m), or LS-only -- a well-formed LS slice beside an empty
  /// BE slice (zero cores). ResourceEnforcer::apply and
  /// SimulatedServer::set_partition accept exactly these, as does the
  /// policies' precondition (ValidateConfig with an empty BE allowed).
  bool enforceable_on(const MachineSpec& m) const;

  /// Paper-style rendering, e.g. "<8C, 1.2F, 7L; 12C, 2.2F, 13L>".
  std::string to_string(const MachineSpec& m) const;

  /// Partition giving every core and way to the LS service at the top
  /// P-state; the BE slice is empty (cores = ways = 0 at P-state 0).
  /// This is the controller's initial allocation (Algorithm 1, line 1)
  /// and doubles as the watchdog's known-safe fallback partition.
  static Partition all_to_ls(const MachineSpec& m);
};

}  // namespace sturgeon
