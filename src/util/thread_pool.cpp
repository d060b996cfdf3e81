#include "util/thread_pool.h"

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "util/check.h"

namespace sturgeon {

namespace {
/// The pool whose worker_loop this thread runs; null off the pools.
thread_local const ThreadPool* tls_worker_of = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  // Claim the worker threads under the lock so concurrent shutdown()
  // calls (or shutdown racing the destructor) cannot join a thread twice;
  // join outside the lock so draining workers can still pop tasks.
  std::vector<std::thread> claimed;
  {
    MutexLock lock(mu_);
    stopping_ = true;
    claimed.swap(workers_);
  }
  cv_.notify_all();
  for (auto& w : claimed) w.join();
}

void ThreadPool::worker_loop() {
  tls_worker_of = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) cv_.wait(mu_);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  STURGEON_CHECK(fn != nullptr, "parallel_for: null body");
  // The caller runs no blocks; it only waits. A worker of this pool that
  // waited here would hold its thread while its blocks queue behind it,
  // and once every worker did so, none would run.
  if (tls_worker_of == this) {
    throw std::logic_error(
        "ThreadPool::parallel_for called from one of the pool's own workers");
  }
  if (n == 0) return;
  const std::size_t nworkers = size();
  if (nworkers == 0) {
    throw std::runtime_error("ThreadPool::parallel_for after shutdown");
  }
  const std::size_t blocks = std::min(n, nworkers);
  const std::size_t chunk = (n + blocks - 1) / blocks;
  std::vector<std::future<void>> futs;
  futs.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * chunk;
    const std::size_t hi = std::min(n, lo + chunk);
    if (lo >= hi) break;
    futs.push_back(submit([lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  // Every block must finish before we rethrow: blocks borrow `fn` (and
  // whatever its captures reference), so returning early would let still-
  // running blocks touch dead stack frames. Futures are visited in block
  // order, so the lowest-indexed failing block wins deterministically.
  std::exception_ptr first_error;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sturgeon
