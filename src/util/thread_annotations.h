// Clang Thread Safety Analysis for Sturgeon's lock-bearing subsystems.
//
// Every mutex-protected invariant in the codebase (thread-pool queue,
// metrics registry maps, tracer span stack, model-registry latches) is
// stated *in the type system* with the macros below and checked at
// compile time by clang's -Wthread-safety analysis:
// a field marked STURGEON_GUARDED_BY(mu) cannot be read or written
// without mu held, a method marked STURGEON_REQUIRES(mu) cannot be
// called without it, and the STURGEON_ANALYZE build (CMake preset
// `analyze`, the 4th CI leg) turns any violation into a build error.
// TSan still runs as the dynamic complement — it catches what the
// annotations cannot express, the annotations catch interleavings the
// test suite never schedules.
//
// Under compilers without the analysis (gcc) every macro expands to
// nothing and the wrapper types below degrade to plain std::mutex
// behavior, so annotated code builds identically everywhere. New code
// must use these wrappers instead of raw std mutexes: lint rule SL009
// (tools/lint.py) rejects raw std::mutex / std::shared_mutex members in
// src/ and requires every wrapper member to guard at least one
// STURGEON_GUARDED_BY field or carry an explicit
// `// lint: unguarded(<reason>)` waiver. See DESIGN.md section 10.
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define STURGEON_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef STURGEON_THREAD_ANNOTATION
#define STURGEON_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// Type declares a capability (a lock, in practice).
#define STURGEON_CAPABILITY(x) STURGEON_THREAD_ANNOTATION(capability(x))
/// RAII type that acquires in its constructor, releases in its destructor.
#define STURGEON_SCOPED_CAPABILITY STURGEON_THREAD_ANNOTATION(scoped_lockable)
/// Field may only be touched with the named capability held.
#define STURGEON_GUARDED_BY(x) STURGEON_THREAD_ANNOTATION(guarded_by(x))
/// Pointee (not the pointer) is protected by the named capability.
#define STURGEON_PT_GUARDED_BY(x) STURGEON_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function acquires the capability.
#define STURGEON_ACQUIRE(...) \
  STURGEON_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the capability.
#define STURGEON_RELEASE(...) \
  STURGEON_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns the given value.
#define STURGEON_TRY_ACQUIRE(...) \
  STURGEON_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Caller must already hold the capability.
#define STURGEON_REQUIRES(...) \
  STURGEON_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (deadlock prevention: the
/// function acquires it itself).
#define STURGEON_EXCLUDES(...) \
  STURGEON_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the named capability.
#define STURGEON_RETURN_CAPABILITY(x) \
  STURGEON_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch: function is exempt from analysis. Every use must carry
/// a comment explaining why the contract is not expressible.
#define STURGEON_NO_THREAD_SAFETY_ANALYSIS \
  STURGEON_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace sturgeon {

/// std::mutex with the capability attribute so the analysis can track
/// it. Same semantics and cost; lock()/unlock() forward directly.
class STURGEON_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() STURGEON_ACQUIRE() { mu_.lock(); }
  void unlock() STURGEON_RELEASE() { mu_.unlock(); }
  bool try_lock() STURGEON_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// std::lock_guard analogue over Mutex, visible to the analysis.
class STURGEON_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) STURGEON_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~MutexLock() STURGEON_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable usable with the annotated Mutex. wait() declares
/// STURGEON_REQUIRES(mu): callers hold mu (typically via MutexLock) and
/// re-check their predicate in a loop, so guarded-field accesses in the
/// predicate stay inside the analyzed locked scope:
///
///   MutexLock lock(mu_);
///   while (!ready_) cv_.wait(mu_);
///
/// The transient unlock/relock inside std::condition_variable_any::wait
/// happens in the standard library, outside the analysis.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) STURGEON_REQUIRES(mu) { cv_.wait(mu); }
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace sturgeon
