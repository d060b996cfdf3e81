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
  const std::size_t most_blocks = std::min(n, nworkers);
  const std::size_t chunk = (n + most_blocks - 1) / most_blocks;
  const std::size_t blocks = (n + chunk - 1) / chunk;
  // Every block must finish before we return or rethrow: blocks borrow
  // `fn` (and whatever its captures reference) and `join`. A block
  // catches into its own slot, then counts down under join.mu and
  // notifies before unlocking; after that it never touches this frame,
  // so the caller holds the only reference to any exception a block
  // threw and drops it on its own thread. Blocks queue in one step, so
  // either all of them run or, after shutdown, none does.
  struct Join {
    explicit Join(std::size_t blocks) : errors(blocks), pending(blocks) {}
    std::vector<std::exception_ptr> errors;  ///< slot b: block b's alone
    Mutex mu;
    CondVar done;
    std::size_t pending STURGEON_GUARDED_BY(mu);
  } join(blocks);
  {
    MutexLock lock(mu_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool::parallel_for after shutdown");
    }
    for (std::size_t b = 0; b < blocks; ++b) {
      queue_.emplace_back([&, b] {
        const std::size_t lo = b * chunk;
        const std::size_t hi = std::min(n, lo + chunk);
        try {
          for (std::size_t i = lo; i < hi; ++i) fn(i);
        } catch (...) {
          join.errors[b] = std::current_exception();
        }
        MutexLock done(join.mu);
        if (--join.pending == 0) join.done.notify_one();
      });
    }
  }
  for (std::size_t b = 0; b < blocks; ++b) cv_.notify_one();
  {
    MutexLock lock(join.mu);
    while (join.pending != 0) join.done.wait(join.mu);
  }
  // The lowest-indexed failing block wins, whatever order blocks ran in.
  for (const std::exception_ptr& e : join.errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace sturgeon
