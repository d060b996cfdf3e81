// Allocation gate for the simulated Table III tools: once warm, the six
// tool writes of one ResourceEnforcer::apply (two cpusets, two way masks,
// two frequency writes) allocate nothing, and neither does a whole
// ResourceEnforcer::apply followed by its verify. This file replaces the
// global allocation functions of the isolation_tests binary with ones
// that count every operator new and forward to malloc/free.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "isolation/enforcer.h"
#include "isolation/sim_backend.h"

namespace {

std::atomic<std::uint64_t> g_news{0};
void* volatile g_escape = nullptr;

void* counted_malloc(std::size_t n) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_new(std::size_t n) {
  void* p = counted_malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sturgeon::isolation {
namespace {

/// The arguments of the six writes that program one partition, built
/// before counting starts (ResourceEnforcer::apply builds its core lists
/// itself; this gate is about the tools).
struct Writes {
  Partition target;
  std::vector<int> ls_cores, be_cores;
  std::uint32_t ls_mask = 0, be_mask = 0;
};

Writes writes_for(const MachineSpec& m, const Partition& p) {
  Writes w;
  w.target = p;
  for (int c = 0; c < p.ls.cores; ++c) w.ls_cores.push_back(c);
  for (int c = m.num_cores - p.be.cores; c < m.num_cores; ++c) {
    w.be_cores.push_back(c);
  }
  w.ls_mask = contiguous_mask(p.ls.llc_ways, 0);
  w.be_mask = contiguous_mask(p.be.llc_ways, m.llc_ways - p.be.llc_ways);
  return w;
}

/// ResourceEnforcer::apply's sequence from `from` to `to`: shrink before
/// grow per resource type, then one frequency write per non-empty app.
void issue(SimBackend& backend, const Writes& from, const Writes& to) {
  auto& cpuset = backend.cpuset();
  if (to.ls_cores.size() < from.ls_cores.size()) {
    cpuset.set_cpuset(AppId::kLs, to.ls_cores);
    cpuset.set_cpuset(AppId::kBe, to.be_cores);
  } else {
    cpuset.set_cpuset(AppId::kBe, to.be_cores);
    cpuset.set_cpuset(AppId::kLs, to.ls_cores);
  }
  auto& cat = backend.cat();
  if (std::popcount(to.ls_mask) < std::popcount(from.ls_mask)) {
    cat.set_way_mask(AppId::kLs, to.ls_mask);
    cat.set_way_mask(AppId::kBe, to.be_mask);
  } else {
    cat.set_way_mask(AppId::kBe, to.be_mask);
    cat.set_way_mask(AppId::kLs, to.ls_mask);
  }
  backend.freq().set_frequency_level(to.ls_cores, to.target.ls.freq_level);
  if (!to.be_cores.empty()) {
    backend.freq().set_frequency_level(to.be_cores, to.target.be.freq_level);
  }
}

/// Whether operator new is the counting replacement; a gate whose
/// replacement is not in use would pass vacuously.
bool counting_new_in_use() {
  const std::uint64_t probe = g_news.load();
  {
    std::vector<int> escaping(16);
    g_escape = escaping.data();
  }
  return g_news.load() > probe;
}

sim::SimulatedServer quiet_server() {
  sim::ServerConfig cfg;
  cfg.interference.enabled = false;
  return sim::SimulatedServer(find_ls("memcached"), find_be("bs"), 1, cfg);
}

TEST(SimBackendAllocation, WarmToolWritesAllocateNothing) {
  ASSERT_TRUE(counting_new_in_use()) << "operator new is not the counting one";

  sim::SimulatedServer server = quiet_server();
  SimBackend backend(server);
  const MachineSpec& m = server.machine();

  const Writes start = writes_for(m, Partition::all_to_ls(m));
  const Writes a = writes_for(m, Partition{{12, 8, 12}, {8, 3, 8}});
  const Writes b = writes_for(
      m, Partition{{6, m.max_freq_level(), 7}, {14, 2, 13}});
  // Warm-up: one round trip sizes every staged vector.
  issue(backend, start, a);
  issue(backend, a, b);
  issue(backend, b, a);

  bool reached = true;
  const std::uint64_t before = g_news.load();
  for (int i = 0; i < 1000; ++i) {
    const Writes& from = i % 2 == 0 ? a : b;
    const Writes& to = i % 2 == 0 ? b : a;
    issue(backend, from, to);
    reached = reached && server.partition() == to.target;
  }
  const std::uint64_t news = g_news.load() - before;

  EXPECT_EQ(news, 0u) << "operator new calls in 1,000 warm write sequences";
  EXPECT_TRUE(reached) << "a write sequence missed its partition";
  EXPECT_EQ(server.partition(), a.target);
}

TEST(SimBackendAllocation, WarmApplyAndVerifyAllocateNothing) {
  ASSERT_TRUE(counting_new_in_use()) << "operator new is not the counting one";

  sim::SimulatedServer server = quiet_server();
  SimBackend backend(server);
  const MachineSpec& m = server.machine();
  ResourceEnforcer enforcer(m, backend.cpuset(), backend.cat(),
                            backend.freq());
  const Partition a{{12, 8, 12}, {8, 3, 8}};
  const Partition b{{6, m.max_freq_level(), 7}, {14, 2, 13}};
  // Warm-up: one round trip sizes every staged vector.
  enforcer.apply(a);
  enforcer.apply(b);
  enforcer.apply(a);

  bool verified = true;
  const std::uint64_t before = g_news.load();
  for (int i = 0; i < 1000; ++i) {
    const Partition& to = i % 2 == 0 ? b : a;
    enforcer.apply(to);
    verified = enforcer.verify(to) && verified;
  }
  const std::uint64_t news = g_news.load() - before;

  EXPECT_EQ(news, 0u) << "operator new calls in 1,000 warm apply + verify "
                         "sequences";
  EXPECT_TRUE(verified) << "a verify rejected the partition just applied";
  EXPECT_EQ(server.partition(), a);
}

}  // namespace
}  // namespace sturgeon::isolation
