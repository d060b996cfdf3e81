#include "fault/retry.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "isolation/sim_backend.h"
#include "workloads/app_profile.h"

namespace sturgeon::fault {
namespace {

using isolation::ActuatorError;
using isolation::AppId;

/// Deterministic flake: throws ActuatorError on the first `fail_first`
/// writes, then forwards forever (fail_first < 0 = fail every write).
class FlakyCpuset final : public isolation::CpusetController {
 public:
  FlakyCpuset(isolation::CpusetController& inner, int fail_first)
      : inner_(inner), remaining_(fail_first) {}

  void set_cpuset(AppId app, const std::vector<int>& cores) override {
    const bool fail = remaining_ != 0;
    if (remaining_ > 0) --remaining_;
    if (fail) throw ActuatorError("cpuset write");
    inner_.set_cpuset(app, cores);
  }
  const std::vector<int>& cpuset(AppId app) const override {
    return inner_.cpuset(app);
  }

 private:
  isolation::CpusetController& inner_;
  int remaining_;
};

struct Rig {
  sim::SimulatedServer server;
  isolation::SimBackend backend;

  Rig()
      : server(find_ls("memcached"), find_be("rt"), 1,
               [] {
                 sim::ServerConfig cfg;
                 cfg.interference.enabled = false;
                 return cfg;
               }()),
        backend(server) {}

  Partition target() const {
    Partition p;
    p.ls = {6, 4, 8};
    p.be = {14, 9, 12};
    return p;
  }
};

TEST(RetryingEnforcer, ValidatesConfiguration) {
  Rig rig;
  isolation::ResourceEnforcer enforcer(rig.server.machine(),
                                       rig.backend.cpuset(), rig.backend.cat(),
                                       rig.backend.freq());
  RetryConfig bad;
  bad.max_attempts = 0;
  EXPECT_THROW(RetryingEnforcer(enforcer, bad), std::invalid_argument);
}

TEST(RetryingEnforcer, CleanPathAppliesAndVerifies) {
  Rig rig;
  isolation::ResourceEnforcer enforcer(rig.server.machine(),
                                       rig.backend.cpuset(), rig.backend.cat(),
                                       rig.backend.freq());
  RetryingEnforcer retry(enforcer);
  EXPECT_TRUE(retry.apply(rig.target()));
  EXPECT_EQ(rig.server.partition(), rig.target());
  EXPECT_EQ(retry.stats().applies, 1u);
  EXPECT_EQ(retry.stats().retries, 0u);
}

TEST(RetryingEnforcer, RetriesTransientFailuresUntilApplied) {
  Rig rig;
  FlakyCpuset flaky(rig.backend.cpuset(), 2);  // first two writes bounce
  isolation::ResourceEnforcer enforcer(rig.server.machine(), flaky,
                                       rig.backend.cat(), rig.backend.freq());
  RetryingEnforcer retry(enforcer);
  EXPECT_TRUE(retry.apply(rig.target()));
  EXPECT_EQ(rig.server.partition(), rig.target());
  EXPECT_EQ(retry.current(), rig.target());
  EXPECT_GE(retry.stats().retries, 1u);
  EXPECT_EQ(retry.stats().actuator_errors, 2u);
  EXPECT_EQ(retry.stats().gave_up, 0u);
}

TEST(RetryingEnforcer, GivesUpConsistentlyAfterMaxAttempts) {
  Rig rig;
  FlakyCpuset flaky(rig.backend.cpuset(), -1);  // every write bounces
  isolation::ResourceEnforcer enforcer(rig.server.machine(), flaky,
                                       rig.backend.cat(), rig.backend.freq());
  RetryConfig config;
  config.max_attempts = 3;
  RetryingEnforcer retry(enforcer, config);
  EXPECT_FALSE(retry.apply(rig.target()));
  EXPECT_EQ(retry.stats().gave_up, 1u);
  EXPECT_EQ(retry.stats().actuator_errors, 3u);
  EXPECT_EQ(retry.stats().retries, 2u);
  // After the final resync, current() reflects the hardware's actual
  // state, so the next apply sequences against reality.
  EXPECT_EQ(retry.current(), rig.backend.derived_partition());
}

TEST(RetryingEnforcer, PermanentErrorsPropagate) {
  Rig rig;
  isolation::ResourceEnforcer enforcer(rig.server.machine(),
                                       rig.backend.cpuset(), rig.backend.cat(),
                                       rig.backend.freq());
  RetryingEnforcer retry(enforcer);
  Partition impossible;
  impossible.ls = {999, 0, 1};  // more cores than the machine has
  impossible.be = {1, 0, 1};
  EXPECT_THROW(retry.apply(impossible), std::invalid_argument);
}

}  // namespace
}  // namespace sturgeon::fault
