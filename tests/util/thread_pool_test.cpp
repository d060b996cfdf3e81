#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace sturgeon {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmpty) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ManySmallTasks) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  std::vector<std::future<void>> futs;
  for (int i = 1; i <= 500; ++i) {
    futs.push_back(pool.submit([&sum, i] { sum += i; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(sum.load(), 500L * 501L / 2L);
}

TEST(ThreadPool, DefaultSizePositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_THROW(pool.submit([] { return 1; }), std::runtime_error);
  EXPECT_THROW(pool.parallel_for(4, [](std::size_t) {}),
               std::runtime_error);
  pool.shutdown();  // idempotent
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  ThreadPool pool(1);
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 64; ++i) {
    futs.push_back(pool.submit([&ran] { ran.fetch_add(1); }));
  }
  pool.shutdown();
  for (auto& f : futs) f.get();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, ParallelForFewerItemsThanWorkers) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForSingleItem) {
  ThreadPool pool(4);
  std::atomic<int> hits{0};
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    hits.fetch_add(1);
  });
  EXPECT_EQ(hits.load(), 1);
}

TEST(ThreadPool, ParallelForRethrowsLowestFailingBlock) {
  // One index per block: every index >= 1 throws; the lowest failing
  // block (index 1) must win regardless of completion order.
  ThreadPool pool(4);
  try {
    pool.parallel_for(4, [](std::size_t i) {
      if (i >= 1) throw std::runtime_error("fail-" + std::to_string(i));
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "fail-1");
  }
}

TEST(ThreadPool, ParallelForRethrowsLowestFailingBlockWhenChunked) {
  // 2 workers, 8 items -> blocks [0,4) and [4,8). Failures at i=2 and
  // i=5 land in different blocks; block 0's exception must surface.
  ThreadPool pool(2);
  try {
    pool.parallel_for(8, [](std::size_t i) {
      if (i == 2 || i == 5) {
        throw std::runtime_error("fail-" + std::to_string(i));
      }
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "fail-2");
  }
}

TEST(ThreadPool, ParallelForWaitsForAllBlocksBeforeRethrow) {
  // If parallel_for rethrew before every block finished, the still-
  // running blocks would race the destruction of `completed` (ASan/TSan
  // would flag it) and this count would be short. 4 workers, n = 16 ->
  // chunk = 4; index 0 throws, aborting the rest of block [0,4), while
  // the other three blocks must run to completion: 12 iterations.
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.parallel_for(16, [&](std::size_t i) {
      if (i == 0) throw std::runtime_error("early");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      completed.fetch_add(1);
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error&) {
    EXPECT_EQ(completed.load(), 12);
  }
}

TEST(ThreadPool, NestedParallelForOnSamePoolThrows) {
  // The caller of parallel_for only waits. Were a worker to wait on
  // blocks of its own pool, the pool would hang once every worker did, so
  // the nested call throws before it queues a block.
  ThreadPool pool(2);
  std::atomic<int> inner_runs{0};
  EXPECT_THROW(pool.parallel_for(2,
                                 [&](std::size_t) {
                                   pool.parallel_for(2, [&](std::size_t) {
                                     inner_runs.fetch_add(1);
                                   });
                                 }),
               std::logic_error);
  EXPECT_EQ(inner_runs.load(), 0);
  auto f = pool.submit([&] { pool.parallel_for(1, [](std::size_t) {}); });
  EXPECT_THROW(f.get(), std::logic_error);

  // The pool stays usable, and its caller thread may still call it.
  std::atomic<int> runs{0};
  pool.parallel_for(5, [&](std::size_t) { runs.fetch_add(1); });
  EXPECT_EQ(runs.load(), 5);
}

TEST(ThreadPool, NestedParallelForOnOtherPoolRuns) {
  ThreadPool outer(2);
  ThreadPool inner(2);
  constexpr std::size_t kInner = 8;
  std::vector<std::atomic<int>> hits(2 * kInner);
  outer.parallel_for(2, [&](std::size_t i) {
    inner.parallel_for(kInner, [&](std::size_t j) {
      hits[i * kInner + j].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace sturgeon
