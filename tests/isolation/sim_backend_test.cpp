#include "isolation/sim_backend.h"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace sturgeon::isolation {
namespace {

sim::SimulatedServer make_server() {
  sim::ServerConfig cfg;
  cfg.interference.enabled = false;
  return sim::SimulatedServer(find_ls("memcached"), find_be("bs"), 1, cfg);
}

/// Everything a tool write can change: both cpusets and way masks, every
/// core's P-state and the partition the server runs.
struct ToolState {
  std::vector<int> ls_cores, be_cores;
  std::uint32_t ls_mask = 0, be_mask = 0;
  std::vector<int> levels;
  Partition server;
  bool operator==(const ToolState&) const = default;
};

ToolState tool_state(SimBackend& backend,
                     const sim::SimulatedServer& server) {
  ToolState s;
  s.ls_cores = backend.cpuset().cpuset(AppId::kLs);
  s.be_cores = backend.cpuset().cpuset(AppId::kBe);
  s.ls_mask = backend.cat().way_mask(AppId::kLs);
  s.be_mask = backend.cat().way_mask(AppId::kBe);
  for (int c = 0; c < server.machine().num_cores; ++c) {
    s.levels.push_back(backend.freq().frequency_level(c));
  }
  s.server = server.partition();
  return s;
}

/// `write` must throw std::invalid_argument with exactly `message` and
/// leave every tool and the server as they were.
void expect_rejected(SimBackend& backend, const sim::SimulatedServer& server,
                     const std::function<void()>& write,
                     const std::string& message) {
  const ToolState before = tool_state(backend, server);
  try {
    write();
    ADD_FAILURE() << "write accepted; expected: " << message;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), message);
  }
  EXPECT_TRUE(tool_state(backend, server) == before)
      << "rejected write changed the staged state: " << message;
}

TEST(SimBackend, InitialStateMirrorsServer) {
  auto server = make_server();
  SimBackend backend(server);
  const auto p = backend.derived_partition();
  EXPECT_EQ(p.ls.cores, 20);
  EXPECT_EQ(p.ls.llc_ways, 20);
  EXPECT_EQ(p.be.cores, 0);
}

TEST(SimBackend, ToolMutationsReachTheServer) {
  auto server = make_server();
  SimBackend backend(server);
  // Shrink LS, then grant the BE side.
  backend.cpuset().set_cpuset(AppId::kLs, {0, 1, 2, 3});
  backend.cat().set_way_mask(AppId::kLs, contiguous_mask(6, 0));
  backend.cpuset().set_cpuset(AppId::kBe,
                              {4, 5, 6, 7, 8, 9, 10, 11, 12, 13});
  backend.cat().set_way_mask(AppId::kBe, contiguous_mask(10, 10));
  backend.freq().set_frequency_level({0, 1, 2, 3}, 4);
  backend.freq().set_frequency_level({4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, 9);

  const auto p = server.partition();
  EXPECT_EQ(p.ls.cores, 4);
  EXPECT_EQ(p.ls.llc_ways, 6);
  EXPECT_EQ(p.ls.freq_level, 4);
  EXPECT_EQ(p.be.cores, 10);
  EXPECT_EQ(p.be.llc_ways, 10);
  EXPECT_EQ(p.be.freq_level, 9);
}

TEST(SimBackend, OverlappingCpusetsRejected) {
  auto server = make_server();
  SimBackend backend(server);
  backend.cpuset().set_cpuset(AppId::kLs, {0, 1, 2});
  EXPECT_THROW(backend.cpuset().set_cpuset(AppId::kBe, {2, 3}),
               std::invalid_argument);
}

TEST(SimBackend, OverlappingWayMasksRejected) {
  auto server = make_server();
  SimBackend backend(server);
  backend.cat().set_way_mask(AppId::kLs, 0b1111);
  EXPECT_THROW(backend.cat().set_way_mask(AppId::kBe, 0b1000),
               std::invalid_argument);
}

TEST(SimBackend, ValidationOfToolArguments) {
  auto server = make_server();
  SimBackend backend(server);
  EXPECT_THROW(backend.cpuset().set_cpuset(AppId::kLs, {20}),
               std::invalid_argument);  // core id out of range
  EXPECT_THROW(backend.cpuset().set_cpuset(AppId::kLs, {1, 1}),
               std::invalid_argument);  // duplicate
  EXPECT_THROW(backend.cat().set_way_mask(AppId::kLs, 0xFFFFFFFFu),
               std::invalid_argument);  // wider than the LLC
  EXPECT_THROW(backend.freq().set_frequency_level({0}, 42),
               std::invalid_argument);
  EXPECT_THROW(backend.freq().set_frequency_level({-1}, 3),
               std::invalid_argument);
  EXPECT_THROW(backend.freq().frequency_level(99), std::invalid_argument);
}

TEST(SimBackend, RejectedCpusetWriteLeavesBackendUnchanged) {
  auto server = make_server();
  SimBackend backend(server);
  backend.cpuset().set_cpuset(AppId::kLs, {0, 1, 2});
  auto& cpuset = backend.cpuset();
  expect_rejected(backend, server,
                  [&] { cpuset.set_cpuset(AppId::kBe, {2, 3}); },
                  "SimBackend: overlapping cpusets");
  // Range and duplicate checks come before the overlap check.
  expect_rejected(backend, server,
                  [&] { cpuset.set_cpuset(AppId::kBe, {2, 20}); },
                  "set_cpuset: core id out of range");
  expect_rejected(backend, server,
                  [&] { cpuset.set_cpuset(AppId::kBe, {2, 2}); },
                  "set_cpuset: duplicate core id");
  expect_rejected(backend, server,
                  [&] { cpuset.set_cpuset(AppId::kLs, {0, 1, 1}); },
                  "set_cpuset: duplicate core id");

  // Every tool still takes valid writes.
  backend.freq().set_frequency_level({0}, 3);
  backend.cat().set_way_mask(AppId::kLs, 0b1111);
  backend.cpuset().set_cpuset(AppId::kBe, {3, 4});
  EXPECT_EQ(backend.cpuset().cpuset(AppId::kBe), (std::vector<int>{3, 4}));
  EXPECT_EQ(backend.cat().way_mask(AppId::kLs), 0b1111u);
  EXPECT_EQ(backend.freq().frequency_level(0), 3);
  EXPECT_EQ(server.partition().ls.freq_level, 3);
}

TEST(SimBackend, RejectedWayMaskWriteLeavesBackendUnchanged) {
  auto server = make_server();
  SimBackend backend(server);
  backend.cat().set_way_mask(AppId::kLs, 0b1111);
  auto& cat = backend.cat();
  expect_rejected(backend, server,
                  [&] { cat.set_way_mask(AppId::kBe, 0x8); },
                  "SimBackend: overlapping CAT masks");
  expect_rejected(backend, server,
                  [&] { cat.set_way_mask(AppId::kBe, 0xFFFFFFFFu); },
                  "set_way_mask: mask wider than LLC");

  backend.cpuset().set_cpuset(AppId::kLs, {0, 1, 2});
  backend.cpuset().set_cpuset(AppId::kBe, {3, 4});
  backend.cat().set_way_mask(AppId::kBe, 0b110000);
  backend.freq().set_frequency_level({3, 4}, 5);
  EXPECT_EQ(backend.cat().way_mask(AppId::kBe), 0b110000u);
  const Partition p = server.partition();
  EXPECT_EQ(p.be.cores, 2);
  EXPECT_EQ(p.be.llc_ways, 2);
  EXPECT_EQ(p.be.freq_level, 5);
}

TEST(SimBackend, RejectedFrequencyWriteLeavesBackendUnchanged) {
  auto server = make_server();
  SimBackend backend(server);
  auto& freq = backend.freq();
  expect_rejected(backend, server,
                  [&] { freq.set_frequency_level({0, 99}, 3); },
                  "set_frequency_level: core out of range");
  expect_rejected(backend, server,
                  [&] { freq.set_frequency_level({0, -1}, 3); },
                  "set_frequency_level: core out of range");
  // The P-state check comes first.
  expect_rejected(backend, server,
                  [&] { freq.set_frequency_level({99}, 42); },
                  "set_frequency_level: bad P-state");
  EXPECT_EQ(backend.derived_partition().ls.freq_level,
            server.partition().ls.freq_level);

  backend.freq().set_frequency_level({0, 1}, 3);
  EXPECT_EQ(backend.freq().frequency_level(0), 3);
  EXPECT_EQ(backend.derived_partition().ls.freq_level, 3);
  EXPECT_EQ(server.partition().ls.freq_level, 3);
}

TEST(SimBackend, RaplReflectsObservedTelemetry) {
  auto server = make_server();
  SimBackend backend(server);
  EXPECT_DOUBLE_EQ(backend.rapl().read_package_power_w(), 0.0);
  const auto t = server.step(0.3);
  backend.observe(t);
  EXPECT_DOUBLE_EQ(backend.rapl().read_package_power_w(), t.power_w);
}

TEST(ContiguousMask, Values) {
  EXPECT_EQ(contiguous_mask(0, 0), 0u);
  EXPECT_EQ(contiguous_mask(4, 0), 0b1111u);
  EXPECT_EQ(contiguous_mask(3, 5), 0b11100000u);
  EXPECT_EQ(contiguous_mask(20, 0), 0xFFFFFu);
  EXPECT_THROW(contiguous_mask(-1, 0), std::invalid_argument);
  EXPECT_THROW(contiguous_mask(30, 10), std::invalid_argument);
}

}  // namespace
}  // namespace sturgeon::isolation
