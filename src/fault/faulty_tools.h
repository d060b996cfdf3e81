// Fault-injecting decorators over the Table III actuator interfaces.
//
// Each decorator forwards to a real controller but consults the node's
// FaultInjector before every *write*: a scheduled failure throws
// isolation::ActuatorError before the inner tool is touched. Reads are
// always reliable (state queries come from the kernel's own books, not
// the flaky driver path), which is exactly what makes
// ResourceEnforcer::verify/resync able to recover.
//
// Because the enforcer issues up to six tool calls per apply() in a
// fixed sequence, a mid-sequence failure yields a genuine *partial*
// apply -- cpusets moved, way masks not -- the hardest case for the
// retry path. A null injector makes every decorator a transparent
// pass-through, so the same wiring serves fault-free runs.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/injector.h"
#include "isolation/controllers.h"

namespace sturgeon::fault {

class FaultyCpuset final : public isolation::CpusetController {
 public:
  FaultyCpuset(isolation::CpusetController& inner, FaultInjector* injector)
      : inner_(inner), injector_(injector) {}

  void set_cpuset(isolation::AppId app,
                  const std::vector<int>& cores) override;
  const std::vector<int>& cpuset(isolation::AppId app) const override {
    return inner_.cpuset(app);
  }

 private:
  isolation::CpusetController& inner_;
  FaultInjector* injector_;
};

class FaultyCat final : public isolation::CatController {
 public:
  FaultyCat(isolation::CatController& inner, FaultInjector* injector)
      : inner_(inner), injector_(injector) {}

  void set_way_mask(isolation::AppId app, std::uint32_t mask) override;
  std::uint32_t way_mask(isolation::AppId app) const override {
    return inner_.way_mask(app);
  }

 private:
  isolation::CatController& inner_;
  FaultInjector* injector_;
};

class FaultyFreq final : public isolation::FreqDriver {
 public:
  FaultyFreq(isolation::FreqDriver& inner, FaultInjector* injector)
      : inner_(inner), injector_(injector) {}

  void set_frequency_level(const std::vector<int>& cores, int level) override;
  int frequency_level(int core) const override {
    return inner_.frequency_level(core);
  }

 private:
  isolation::FreqDriver& inner_;
  FaultInjector* injector_;
};

}  // namespace sturgeon::fault
