// Small fixed-size thread pool with a parallel_for helper.
//
// Section VII-E of the paper notes the configuration search "can also be
// further accelerated using multithreading"; the predictor's candidate
// evaluation and the offline model trainer use this pool. The pool is
// intentionally simple: a single mutex-protected deque is more than
// adequate for the coarse-grained tasks we submit (whole candidate
// evaluations, whole model fits).
//
// Lock discipline (compile-time checked, see util/thread_annotations.h):
// mu_ guards the queue, the stop flag and the worker vector; public
// entry points declare STURGEON_EXCLUDES(mu_) so a task running on the
// pool that re-enters submit()/shutdown() while somehow holding mu_ is a
// build error under the analyze leg, not a deadlock in production.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace sturgeon {

class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ThreadPool(ThreadPool&&) = delete;
  ThreadPool& operator=(ThreadPool&&) = delete;

  /// Worker count; 0 once shutdown() has claimed the workers. Takes the
  /// lock: shutdown() swaps the worker vector under mu_, so an unlocked
  /// size() would race it (found by the thread-safety annotation pass).
  std::size_t size() const STURGEON_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return workers_.size();
  }

  /// Drain queued tasks and join the workers. Idempotent; the destructor
  /// calls it. After shutdown, submit() and parallel_for() throw.
  void shutdown() STURGEON_EXCLUDES(mu_);

  /// Enqueue a task; the returned future rethrows task exceptions.
  template <typename F>
  auto submit(F&& fn)
      -> std::future<std::invoke_result_t<F>> STURGEON_EXCLUDES(mu_) {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      MutexLock lock(mu_);
      if (stopping_) {
        throw std::runtime_error("ThreadPool::submit after shutdown");
      }
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i) for i in [0, n), blocking until all complete. Work is
  /// block-partitioned: each worker gets one contiguous block of about
  /// n / size() indices, so uneven items need another schedule (e.g.
  /// parallel_for(size(), ...) with each worker claiming the next item
  /// from a shared counter, as exp::warm_models does). If blocks throw,
  /// the exception from the lowest-indexed failing block is rethrown
  /// after every block has finished (so no block can outlive `fn` or
  /// its captures). The caller
  /// only waits, so a call from one of this pool's own workers could
  /// deadlock: it throws std::logic_error before queuing any block. A
  /// worker may still call parallel_for on a different pool.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn)
      STURGEON_EXCLUDES(mu_);

 private:
  void worker_loop() STURGEON_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::vector<std::thread> workers_ STURGEON_GUARDED_BY(mu_);
  std::deque<std::function<void()>> queue_ STURGEON_GUARDED_BY(mu_);
  CondVar cv_;
  bool stopping_ STURGEON_GUARDED_BY(mu_) = false;
};

}  // namespace sturgeon
