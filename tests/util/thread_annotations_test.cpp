// Runtime behavior of the annotated mutex wrappers (all build legs; the
// compile-time analysis itself is exercised by the STURGEON_ANALYZE
// configure gate and tests/util/thread_annotations_fail.cpp).
#include "util/thread_annotations.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace sturgeon {
namespace {

// Runtime ownership probe. The analysis is waived: it deliberately
// acquires and releases in one expression to observe contention, a dance
// the static lock-state tracking is designed to reject.
bool try_lock_now(Mutex& mu) STURGEON_NO_THREAD_SAFETY_ANALYSIS {
  if (mu.try_lock()) {
    mu.unlock();
    return true;
  }
  return false;
}

struct SharedCounter {
  Mutex mu;
  int value STURGEON_GUARDED_BY(mu) = 0;
};

TEST(ThreadAnnotationsTest, MutexLockExcludesConcurrentWriters) {
  SharedCounter counter;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(counter.mu);
        ++counter.value;
      }
    });
  }
  for (auto& t : threads) t.join();
  MutexLock lock(counter.mu);
  EXPECT_EQ(counter.value, kThreads * kIters);
}

TEST(ThreadAnnotationsTest, TryLockReflectsOwnership) {
  Mutex mu;
  EXPECT_TRUE(try_lock_now(mu));
  MutexLock lock(mu);
  std::thread contender([&] { EXPECT_FALSE(try_lock_now(mu)); });
  contender.join();
}

struct Gate {
  Mutex mu;
  CondVar cv;
  bool ready STURGEON_GUARDED_BY(mu) = false;
};

TEST(ThreadAnnotationsTest, CondVarWakesWaiterUnderMutex) {
  Gate gate;
  int observed = -1;
  std::thread waiter([&] {
    MutexLock lock(gate.mu);
    while (!gate.ready) gate.cv.wait(gate.mu);
    observed = 1;
  });
  {
    MutexLock lock(gate.mu);
    gate.ready = true;
  }
  gate.cv.notify_one();
  waiter.join();
  EXPECT_EQ(observed, 1);
}

}  // namespace
}  // namespace sturgeon
