// Annotated mutex / scoped-lock / condition-variable wrappers — the ONLY
// lock vocabulary of this codebase. scripts/lint.sh rejects any use of raw
// std::mutex / std::lock_guard / std::unique_lock / std::condition_variable
// outside this header, and the clang CI leg builds with
// -Werror=thread-safety, so the GUARDED_BY contracts these types anchor are
// machine-checked on every push.
//
// Usage pattern (see docs/CONCURRENCY.md for the full inventory):
//
//   class Pool {
//    public:
//     void Push(Item item) {
//       MutexLock lock(&mutex_);
//       items_.push_back(std::move(item));   // checked: mutex_ is held
//       cv_.NotifyOne();
//     }
//     Item Pop() {
//       MutexLock lock(&mutex_);
//       while (items_.empty()) cv_.Wait(mutex_);  // explicit wait loop
//       ...
//     }
//    private:
//     Mutex mutex_;
//     CondVar cv_;
//     std::vector<Item> items_ GUARDED_BY(mutex_);
//   };
//
// Condition waits are written as explicit `while (!pred) cv.Wait(mu);`
// loops, NOT predicate lambdas: the analysis treats a lambda body as a
// separate unannotated function, so a `cv.wait(lock, [&]{ ... })` predicate
// reading guarded state would defeat the check the wrappers exist for.
#ifndef SKNN_COMMON_MUTEX_H_
#define SKNN_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace sknn {

class CondVar;

/// \brief An exclusive lock (std::mutex) carrying the `capability`
/// annotation, so fields can be declared GUARDED_BY it and functions
/// REQUIRES it. Prefer MutexLock over manual Lock/Unlock pairs.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// \brief RAII holder: acquires the mutex for the enclosing scope. The
/// analysis tracks the capability from construction to scope exit.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// \brief Condition variable working on sknn::Mutex. Wait atomically
/// releases the mutex and reacquires it before returning, so from the
/// analysis' point of view the caller holds the lock throughout — which is
/// exactly the invariant a correct wait loop provides.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// \brief Blocks until notified; spurious wakeups possible — always call
  /// from a `while (!pred)` loop.
  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller's MutexLock still owns the mutex
  }

  /// \brief Wait with a deadline; returns std::cv_status::timeout when the
  /// deadline passed without a notification.
  template <class Clock, class Duration>
  std::cv_status WaitUntil(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status;
  }

  /// \brief Wait with a timeout relative to now.
  template <class Rep, class Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& timeout)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    std::cv_status status = cv_.wait_for(lock, timeout);
    lock.release();
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace sknn

#endif  // SKNN_COMMON_MUTEX_H_
