// Actuator and sensor interfaces mirroring the paper's Table III tools:
//
//   Core      -> Linux cpuset cgroups      (CpusetController)
//   LLC       -> Intel CAT                 (CatController)
//   Frequency -> ACPI frequency driver     (FreqDriver)
//   Power     -> Intel RAPL                (RaplReader)
//
// Sturgeon's runtime talks only to these interfaces; the simulator-backed
// implementations in sim_backend.h stand in for the real drivers, and a
// real-hardware backend (pqos / sysfs cpufreq / powercap) could be
// dropped in without touching the controller code.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace sturgeon::isolation {

/// The two co-located cgroups Sturgeon manages.
enum class AppId { kLs = 0, kBe = 1 };

/// A transient actuation failure: the tool call did not take effect but
/// may succeed if retried (EBUSY from a cgroup write, an MSR write that
/// bounced, a driver mid-reload). Distinct from std::invalid_argument,
/// which marks requests that can never succeed. Thrown by fault-injected
/// tool decorators (fault/faulty_tools.h) and, on real hardware, by any
/// backend whose driver hiccups; absorbed by fault::RetryingEnforcer.
class ActuatorError : public std::runtime_error {
 public:
  explicit ActuatorError(const std::string& what)
      : std::runtime_error("actuator failure: " + what) {}
};

/// Core placement (cpuset cgroups): each app is pinned to an explicit
/// list of logical core ids.
class CpusetController {
 public:
  virtual ~CpusetController() = default;

  /// Pin `app` to exactly `cores` (may be empty for an idle BE group).
  /// Throws std::invalid_argument on out-of-range or duplicate ids.
  virtual void set_cpuset(AppId app, const std::vector<int>& cores) = 0;

  /// `app`'s core list, valid until the next set_cpuset().
  virtual const std::vector<int>& cpuset(AppId app) const = 0;
};

/// LLC way partitioning (Intel CAT): each app's class of service carries
/// a way bitmask. Masks of co-located apps must be disjoint to provide
/// isolation (real CAT allows overlap; Sturgeon never uses it).
class CatController {
 public:
  virtual ~CatController() = default;

  /// Bit i set = way i allocated. Throws on masks wider than the LLC.
  virtual void set_way_mask(AppId app, std::uint32_t mask) = 0;

  virtual std::uint32_t way_mask(AppId app) const = 0;
};

/// Per-core DVFS (ACPI driver): frequency is set per core id; Sturgeon
/// always programs a whole cpuset to one P-state.
class FreqDriver {
 public:
  virtual ~FreqDriver() = default;

  /// Set the P-state index of every core in `cores`.
  virtual void set_frequency_level(const std::vector<int>& cores,
                                   int level) = 0;

  virtual int frequency_level(int core) const = 0;
};

/// Package power sensor (RAPL).
class RaplReader {
 public:
  virtual ~RaplReader() = default;

  /// Average package power over the last sampling interval, in watts.
  virtual double read_package_power_w() const = 0;
};

/// Number of ways in a contiguous mask starting at bit `lsb`.
std::uint32_t contiguous_mask(int num_ways, int lsb);

}  // namespace sturgeon::isolation
