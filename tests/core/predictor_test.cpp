#include "core/predictor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "fake_models.h"

namespace sturgeon::core {
namespace {

const MachineSpec m = MachineSpec::xeon_e5_2630_v4();

TEST(SliceGrid, IndexRoundTrips) {
  const SliceGrid grid(m);
  EXPECT_EQ(grid.size(), static_cast<std::size_t>(m.num_cores + 1) *
                             static_cast<std::size_t>(m.num_freq_levels()) *
                             static_cast<std::size_t>(m.llc_ways + 1));
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid.index(grid.at(i)), i);
  }
}

TEST(Predictor, RequiresAllModels) {
  TrainedModels incomplete = testing::fake_models();
  incomplete.be_power.reset();
  EXPECT_THROW(Predictor(m, incomplete), std::invalid_argument);
}

TEST(Predictor, QosRuleApplied) {
  // Rule: cores * freq >= 1.0 * kQPS and ways >= 3.
  const auto p = testing::fake_predictor(m, 1.0, 3);
  EXPECT_TRUE(p->ls_qos_ok(12000.0, {8, m.level_for(2.0), 5}));   // 16 >= 12
  EXPECT_FALSE(p->ls_qos_ok(20000.0, {8, m.level_for(2.0), 5}));  // 16 < 20
  EXPECT_FALSE(p->ls_qos_ok(1000.0, {8, m.level_for(2.0), 2}));   // ways
}

TEST(Predictor, ThroughputIsIpcTimesCoresTimesGhz) {
  const auto p = testing::fake_predictor(m);
  const AppSlice be{10, m.level_for(2.0), 10};
  const double ipc = p->be_ipc(be);
  EXPECT_NEAR(p->be_throughput(be), ipc * 10 * 2.0, 1e-9);
}

TEST(Predictor, EmptyBeSliceIsFree) {
  const auto p = testing::fake_predictor(m);
  const AppSlice none{0, 0, 0};
  EXPECT_DOUBLE_EQ(p->be_power_w(none), 0.0);
  EXPECT_DOUBLE_EQ(p->be_throughput(none), 0.0);
}

TEST(Predictor, TotalPowerComposes) {
  const auto p = testing::fake_predictor(m);
  Partition part;
  part.ls = {4, 4, 6};
  part.be = {16, 8, 14};
  EXPECT_NEAR(p->total_power_w(10000.0, part),
              p->ls_power_w(10000.0, part.ls) + p->be_power_w(part.be),
              1e-9);
}

TEST(Predictor, CountsInvocations) {
  const auto p = testing::fake_predictor(m);
  // Construction swept each BE model once over every slice with cores >= 1.
  const auto grid = static_cast<std::uint64_t>(m.num_cores) *
                    static_cast<std::uint64_t>(m.num_freq_levels()) *
                    static_cast<std::uint64_t>(m.llc_ways + 1);
  EXPECT_EQ(p->model_invocations(), 2 * grid);

  // An LS query runs its model once; a BE answer is a table lookup.
  const auto base = p->model_invocations();
  p->ls_qos_ok(1000.0, {4, 4, 6});
  p->be_ipc({10, 8, 10});
  Partition part;
  part.ls = {4, 4, 6};
  part.be = {16, 8, 14};
  p->total_power_w(1000.0, part);  // ls_power call + be_power lookup
  EXPECT_EQ(p->model_invocations() - base, 2u);
}

TEST(Predictor, ReportsCallsPerQuery) {
  const auto p = testing::fake_predictor(m);
  std::uint64_t calls = 0;
  p->ls_qos_ok(1000.0, {4, 4, 6}, &calls);
  p->ls_power_w(1000.0, {4, 4, 6}, &calls);
  EXPECT_EQ(calls, 2u);
  p->be_power_w({16, 8, 14});
  p->be_throughput({16, 8, 14});
  EXPECT_EQ(calls, 2u);
}

TEST(Predictor, BeSliceOutsideMachineRejected) {
  const auto p = testing::fake_predictor(m);
  EXPECT_THROW(p->be_power_w({m.num_cores + 1, 0, 4}), std::out_of_range);
  EXPECT_THROW(p->be_ipc({4, m.num_freq_levels(), 4}), std::out_of_range);
  EXPECT_THROW(p->be_power_w({4, 0, m.llc_ways + 1}), std::out_of_range);
  EXPECT_THROW(p->be_throughput({4, -1, 4}), std::out_of_range);
}

}  // namespace
}  // namespace sturgeon::core
