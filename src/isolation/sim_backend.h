// Simulator-backed implementations of the Table III tool interfaces.
// All four tools share a staging area (core lists, way masks, per-core
// P-states) and push the derived <C1,F1,L1;C2,F2,L2> partition into the
// SimulatedServer after every mutation, mirroring how each real tool
// takes effect immediately and independently. Each write checks its
// whole argument against the other app's staged state before it stages
// anything, so a rejected write (std::invalid_argument) leaves the
// backend and the server as they were, and the two apps never share a
// core or a way. Warm writes allocate nothing.
#pragma once

#include <array>
#include <cstdint>

#include "isolation/controllers.h"
#include "sim/server.h"

namespace sturgeon::isolation {

class SimBackend {
 public:
  explicit SimBackend(sim::SimulatedServer& server);

  CpusetController& cpuset() { return cpuset_; }
  CatController& cat() { return cat_; }
  FreqDriver& freq() { return freq_; }
  const RaplReader& rapl() const { return rapl_; }
  RaplReader& rapl() { return rapl_; }

  /// Record the latest telemetry so the RAPL reader reflects it.
  void observe(const sim::ServerTelemetry& sample);

  /// The partition currently derived from the staged tool state.
  Partition derived_partition() const;

 private:
  struct State {
    std::array<std::vector<int>, 2> cpusets;
    std::array<std::uint32_t, 2> way_masks{0, 0};
    std::vector<int> core_freq_levels;  // per logical core
  };

  /// Recompute the partition from the staged state, which the writes
  /// keep disjoint, and apply it to the simulator once it is appliable.
  void sync();

  class CpusetImpl : public CpusetController {
   public:
    explicit CpusetImpl(SimBackend& owner) : owner_(owner) {}
    /// Also throws if `cores` shares a core with the other app's cpuset.
    void set_cpuset(AppId app, const std::vector<int>& cores) override;
    const std::vector<int>& cpuset(AppId app) const override;

   private:
    SimBackend& owner_;
  };

  class CatImpl : public CatController {
   public:
    explicit CatImpl(SimBackend& owner) : owner_(owner) {}
    /// Also throws if `mask` shares a way with the other app's mask.
    void set_way_mask(AppId app, std::uint32_t mask) override;
    std::uint32_t way_mask(AppId app) const override;

   private:
    SimBackend& owner_;
  };

  class FreqImpl : public FreqDriver {
   public:
    explicit FreqImpl(SimBackend& owner) : owner_(owner) {}
    /// Throws on a bad P-state or any core out of range.
    void set_frequency_level(const std::vector<int>& cores,
                             int level) override;
    int frequency_level(int core) const override;

   private:
    SimBackend& owner_;
  };

  class RaplImpl : public RaplReader {
   public:
    double read_package_power_w() const override { return last_power_w_; }
    void set(double w) { last_power_w_ = w; }

   private:
    double last_power_w_ = 0.0;
  };

  sim::SimulatedServer& server_;
  State state_;
  CpusetImpl cpuset_;
  CatImpl cat_;
  FreqImpl freq_;
  RaplImpl rapl_;
};

}  // namespace sturgeon::isolation
