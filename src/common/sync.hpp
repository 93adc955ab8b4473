#pragma once
// Small synchronisation helpers layered over <mutex>/<condition_variable>.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>

namespace evmp::common {

/// Scoped test-and-set spinlock on an atomic_flag: for critical sections
/// of a few instructions whose lock must stay trivially destructible
/// (process-lifetime tables, per-executor registries).
class SpinLockGuard {
 public:
  explicit SpinLockGuard(std::atomic_flag& flag) noexcept : flag_(flag) {
    while (flag_.test_and_set(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  ~SpinLockGuard() { flag_.clear(std::memory_order_release); }
  SpinLockGuard(const SpinLockGuard&) = delete;
  SpinLockGuard& operator=(const SpinLockGuard&) = delete;

 private:
  std::atomic_flag& flag_;
};

/// A resettable countdown latch (std::latch cannot be reused, which the
/// benchmark harnesses need between rounds).
class CountdownLatch {
 public:
  explicit CountdownLatch(std::size_t count) : count_(count) {}

  /// Decrement; wakes waiters when the count reaches zero.
  void count_down() {
    std::scoped_lock lk(mu_);
    if (count_ > 0 && --count_ == 0) cv_.notify_all();
  }

  /// Block until the count reaches zero.
  void wait() {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return count_ == 0; });
  }

  /// Block until zero or timeout; returns true if the latch opened.
  template <class Rep, class Period>
  bool wait_for(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock lk(mu_);
    return cv_.wait_for(lk, timeout, [&] { return count_ == 0; });
  }

  /// Re-arm with a new count. Callers must ensure no concurrent waiters.
  void reset(std::size_t count) {
    std::scoped_lock lk(mu_);
    count_ = count;
  }

  [[nodiscard]] std::size_t pending() const {
    std::scoped_lock lk(mu_);
    return count_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::size_t count_;
};

/// Counting semaphore with runtime-settable capacity (std::counting_semaphore
/// fixes its ceiling at compile time). Used by the simulated work model to
/// model a machine with K cores.
class Semaphore {
 public:
  explicit Semaphore(std::size_t permits) : permits_(permits) {}

  /// Block until a permit is available, then take it.
  void acquire() {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return permits_ > 0; });
    --permits_;
  }

  /// Return a permit. Notifies under the lock so the semaphore may be
  /// destroyed/replaced as soon as a waiter can observe the permit.
  void release() {
    std::scoped_lock lk(mu_);
    ++permits_;
    cv_.notify_one();
  }

  [[nodiscard]] std::size_t available() const {
    std::scoped_lock lk(mu_);
    return permits_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::size_t permits_;
};

/// RAII permit holder.
class SemaphoreGuard {
 public:
  explicit SemaphoreGuard(Semaphore& sem) : sem_(sem) { sem_.acquire(); }
  ~SemaphoreGuard() { sem_.release(); }
  SemaphoreGuard(const SemaphoreGuard&) = delete;
  SemaphoreGuard& operator=(const SemaphoreGuard&) = delete;

 private:
  Semaphore& sem_;
};

/// Manual-reset event: set() releases all current and future waiters until
/// reset(). Used to gate benchmark phases.
class ManualResetEvent {
 public:
  void set() {
    std::scoped_lock lk(mu_);
    set_ = true;
    cv_.notify_all();  // under the lock: destruction-safe wakeup
  }

  void reset() {
    std::scoped_lock lk(mu_);
    set_ = false;
  }

  void wait() {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return set_; });
  }

  [[nodiscard]] bool is_set() const {
    std::scoped_lock lk(mu_);
    return set_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool set_ = false;
};

}  // namespace evmp::common
