#pragma once
// EventCount: the classic "eventcount" sleep/wake primitive (Vyukov-style,
// as popularised by folly::EventCount), packed into one 64-bit atomic word:
// low 32 bits = number of waiters currently between prepare_wait() and
// wake-up, high 32 bits = notification epoch.
//
// It lets a consumer park on an arbitrary lock-free condition without a
// mutex and without lost wakeups:
//
//   consumer:  key = ec.prepare_wait();        // announce intent (RMW)
//              if (queue.try_pop(x)) { ec.cancel_wait(); ... }
//              else ec.commit_wait(key);       // sleep unless epoch moved
//
//   producer:  queue.push(x);                  // make condition true
//              ec.notify_one();                // bump epoch, wake if waiters
//
// Correctness: prepare_wait() and notify_*() are both RMWs on the same
// word, so they are totally ordered. If the producer's push lands
// after the consumer's re-check, the producer's epoch bump is ordered
// after prepare_wait() and commit_wait() observes the changed epoch and
// returns immediately; if the push landed before the re-check, the
// consumer saw the item and cancelled. Either way no wakeup is lost — the
// property tests/test_chase_lev.cpp regression-tests by hammering a
// single-slot handoff.
//
// Sleeping is a futex on the epoch half of the word (Linux), so a waiter
// sleeps exactly until the epoch moves, a timed wait takes an absolute
// steady-clock deadline, and notify_*() when there are no waiters is one
// RMW and NO syscall: the task-post fast path stays cheap.
//
// Parker (below) gives every thread one EventCount of its own; the
// `await` barrier and the tag join park on it (DESIGN.md §9.2).

#include <atomic>
#include <bit>
#include <cstdint>
#include <thread>

#include "common/clock.hpp"

namespace evmp::common {

class EventCount {
 public:
  /// Opaque ticket from prepare_wait(), consumed by commit/cancel.
  class WaitKey {
   public:
    explicit WaitKey(std::uint32_t epoch) : epoch_(epoch) {}

   private:
    friend class EventCount;
    std::uint32_t epoch_;
  };

  EventCount() = default;
  EventCount(const EventCount&) = delete;
  EventCount& operator=(const EventCount&) = delete;

  /// Announce intent to sleep. MUST be followed by exactly one of
  /// commit_wait(key) or cancel_wait(); re-check the wait condition in
  /// between. The RMW is seq_cst, so a caller that follows it with a
  /// seq_cst fence before its re-check pairs with a producer's
  /// fence-then-has_waiters() (store buffering, DESIGN.md §9.2).
  [[nodiscard]] WaitKey prepare_wait() noexcept {
    const std::uint64_t prev =
        word_.fetch_add(kWaiterInc, std::memory_order_seq_cst);
    return WaitKey(static_cast<std::uint32_t>(prev >> kEpochShift));
  }

  /// Condition became true between prepare and commit: stand down.
  void cancel_wait() noexcept {
    word_.fetch_sub(kWaiterInc, std::memory_order_acq_rel);
  }

  /// Park until the epoch moves past the one captured by prepare_wait().
  /// Returns immediately if a notify already intervened.
  void commit_wait(WaitKey key) noexcept {
    while (epoch() == key.epoch_) futex_wait(key.epoch_, nullptr);
    word_.fetch_sub(kWaiterInc, std::memory_order_acq_rel);
  }

  /// As commit_wait(), but gives up at `deadline`. Returns true when a
  /// notify moved the epoch, false on timeout.
  bool commit_wait_until(WaitKey key, TimePoint deadline) noexcept {
    bool notified = true;
    while (epoch() == key.epoch_) {
      if (!futex_wait(key.epoch_, &deadline)) {
        notified = epoch() != key.epoch_;
        break;
      }
    }
    word_.fetch_sub(kWaiterInc, std::memory_order_acq_rel);
    return notified;
  }

  /// Wake one waiter (if any). Always bumps the epoch so a concurrent
  /// prepare/commit pair cannot miss this notification. Returns whether
  /// the bump counted a waiter (and so issued the futex wake).
  bool notify_one() noexcept {
    const std::uint64_t prev =
        word_.fetch_add(kEpochInc, std::memory_order_acq_rel);
    if ((prev & kWaiterMask) == 0) return false;
    futex_wake(1);
    return true;
  }

  /// Wake all waiters (shutdown, barrier release, a shared parker).
  void notify_all() noexcept {
    const std::uint64_t prev =
        word_.fetch_add(kEpochInc, std::memory_order_acq_rel);
    if ((prev & kWaiterMask) != 0) futex_wake(kWakeAll);
  }

  /// True if any thread is between prepare_wait() and wake-up. Used by
  /// producers to skip even the epoch bump on the ultra-hot path; callers
  /// must tolerate the inherent race (a waiter arriving just after the
  /// load is caught by its own re-check of the condition).
  [[nodiscard]] bool has_waiters() const noexcept {
    return (word_.load(std::memory_order_acquire) & kWaiterMask) != 0;
  }

 private:
  static constexpr std::uint64_t kWaiterInc = 1;
  static constexpr std::uint64_t kWaiterMask = 0xffffffffULL;
  static constexpr int kEpochShift = 32;
  static constexpr std::uint64_t kEpochInc = 1ULL << kEpochShift;
  static constexpr int kWakeAll = 0x7fffffff;

  [[nodiscard]] std::uint32_t epoch() const noexcept {
    return static_cast<std::uint32_t>(
        word_.load(std::memory_order_acquire) >> kEpochShift);
  }

  /// Address of the epoch half of word_: the 32-bit futex word the kernel
  /// compares (never dereferenced here).
  [[nodiscard]] void* epoch_word() noexcept {
    return reinterpret_cast<char*>(&word_) +
           (std::endian::native == std::endian::little ? 4 : 0);
  }

  /// Sleep while the epoch still reads `expected`, until woken or
  /// `deadline` (nullptr: none). False only when the deadline passed.
  bool futex_wait(std::uint32_t expected, const TimePoint* deadline) noexcept;
  void futex_wake(int count) noexcept;

  alignas(64) std::atomic<std::uint64_t> word_{0};
  static_assert(sizeof(std::atomic<std::uint64_t>) == sizeof(std::uint64_t));
};

/// One EventCount per thread, for joins that must wake on more than one
/// source: the `await` barrier parks on it until its completion finishes
/// or its own executor gets work, and wait(name-tag) until the group
/// drains. Whoever makes the condition true notifies the parker the
/// waiter published (in the completion, the tag group, the executor).
///
/// A parker is never freed. At thread exit it returns to a process-wide
/// free list and the next new thread reuses it, so a notify that lands
/// after its waiter has left can cause only a spurious wakeup. Every
/// parker has a small stable id (>= 1) for callers that pack a parker
/// reference into another atomic word (TagGroup).
struct Parker {
  EventCount events;
  std::uint32_t id = 0;
  Parker* next_free = nullptr;

  /// The calling thread's parker (taken from the free list on first use).
  static Parker& current() noexcept;
  /// The parker with id `id` (an id once handed out stays valid forever).
  static Parker& from_id(std::uint32_t id) noexcept;
};

/// Bounded spin-then-yield ladder in front of every park: the executor
/// workers, the fork-join barrier and the completion/tag joins. Pause-spin
/// only on multi-core hosts (spinning on 1 CPU just steals the producer's
/// timeslice), then `yields` sched_yields, then the caller should park.
class SpinWait {
 public:
  SpinWait() noexcept = default;
  explicit SpinWait(int yields) noexcept : yields_(yields) {}

  /// One step up the backoff ladder. Returns false once the caller should
  /// stop spinning and park on a real waiting primitive.
  bool spin() noexcept {
    if (spins_ < pause_budget()) {
      ++spins_;
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#else
      std::this_thread::yield();
#endif
      return true;
    }
    if (spins_ < pause_budget() + yields_) {
      ++spins_;
      std::this_thread::yield();
      return true;
    }
    return false;
  }

  void reset() noexcept { spins_ = 0; }

 private:
  static int pause_budget() noexcept {
    static const int budget =
        std::thread::hardware_concurrency() > 1 ? 128 : 0;
    return budget;
  }

  static constexpr int kYields = 16;
  int yields_ = kYields;
  int spins_ = 0;
};

}  // namespace evmp::common
