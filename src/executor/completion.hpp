#pragma once
// Completion tracking for asynchronously submitted blocks.
//
// A CompletionState is the rendezvous between a submitted target block and
// any thread that later joins it (the paper's `default` wait, `await`
// logical barrier, and `wait(name-tag)` all observe one of these).
//
// Perf shape (the dispatch fast path): the state machine is a single
// atomic word, the exception slot is published by the phase store, and
// states are recycled through a thread-cached pool (common::ObjectPool)
// behind an intrusive refcounted handle. A state returns to the pool only
// when its last reference drops, so a pooled state can never be recycled
// under a live waiter: every waiter reaches the state through a
// reference-holding handle.
//
// Joining is exec::join: a bounded pause/yield ladder (target blocks are
// often shorter than a futex round trip), then a park on the joiner's
// common::Parker, which the joiner publishes in the state's waiter slot.
// set_done()/set_exception() store the phase and then notify the parker
// named in that slot — one extra load when nobody parked. Both sides use
// seq_cst on the phase and the slot, so either the setter sees the parker
// or the joiner's re-check sees the phase. Joiners of one state share the
// first joiner's parker (notify_all wakes them all). The setter touches
// the state after the phase store, so it must hold a reference (or
// otherwise keep the state alive) until set_done() returns.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <optional>
#include <utility>

#include "common/event_count.hpp"
#include "common/object_pool.hpp"
#include "executor/join.hpp"

namespace evmp::exec {

class CompletionRef;

/// Shared state describing one in-flight asynchronous block.
class CompletionState {
 public:
  CompletionState() = default;
  CompletionState(const CompletionState&) = delete;
  CompletionState& operator=(const CompletionState&) = delete;

  /// Acquire a recycled (or fresh) state from the pool, re-armed to
  /// pending, wrapped in a reference-holding handle.
  static CompletionRef make();

  /// Mark successful completion and wake the parked joiners.
  void set_done() {
    phase_.store(kDone, std::memory_order_seq_cst);
    wake_joiners();
  }

  /// Mark failed completion; the exception is rethrown at join points.
  void set_exception(std::exception_ptr ep) {
    error_ = std::move(ep);  // published by the phase store below
    phase_.store(kError, std::memory_order_seq_cst);
    wake_joiners();
  }

  [[nodiscard]] bool done() const {
    return phase_.load(std::memory_order_seq_cst) != kPending;
  }

  [[nodiscard]] bool failed() const {
    return phase_.load(std::memory_order_acquire) == kError;
  }

  /// Block until completion; rethrows a stored exception. Every joining
  /// thread observes the same exception (OpenMP has a single join point,
  /// but name_as tags may legally be waited on more than once).
  void wait() {
    JoinStats stats;
    join(*this, nullptr, std::nullopt, stats);
    rethrow_if_error();
  }

  /// Block until completion or `deadline`; true when complete (rethrows
  /// a stored exception), false on timeout.
  bool wait_until(common::TimePoint deadline) {
    JoinStats stats;
    if (!join(*this, nullptr, deadline, stats)) return false;
    rethrow_if_error();
    return true;
  }

  /// Block up to `timeout`; see wait_until().
  template <class Rep, class Period>
  bool wait_for(std::chrono::duration<Rep, Period> timeout) {
    return wait_until(
        common::now() +
        std::chrono::duration_cast<std::chrono::nanoseconds>(timeout));
  }

  /// exec::join: publish `mine` as the parker the setter notifies, or
  /// return the parker an earlier joiner already published.
  common::EventCount& watch(common::Parker& mine) noexcept {
    common::EventCount* published = nullptr;
    if (waiter_.compare_exchange_strong(published, &mine.events,
                                        std::memory_order_seq_cst)) {
      return mine.events;
    }
    return *published;
  }

  /// Rethrow the stored exception, if any (call only after done()).
  void rethrow_if_error() {
    if (phase_.load(std::memory_order_acquire) == kError) {
      std::rethrow_exception(error_);
    }
  }

  // --- intrusive refcount / pooling (used via CompletionRef) ------------
  void add_ref() noexcept { refs_.fetch_add(1, std::memory_order_relaxed); }

  void release() noexcept {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      if (pooled_) {
        error_ = nullptr;  // drop the exception now, not at reuse
        common::ObjectPool<CompletionState>::release(this);
      }
    }
  }

  CompletionState* pool_next_ = nullptr;  ///< freelist link (ObjectPool)

 private:
  friend class CompletionRef;

  static constexpr std::uint32_t kPending = 0;
  static constexpr std::uint32_t kDone = 1;
  static constexpr std::uint32_t kError = 2;

  void wake_joiners() noexcept {
    if (common::EventCount* parker =
            waiter_.load(std::memory_order_seq_cst)) {
      parker->notify_all();
    }
  }

  std::atomic<std::uint32_t> phase_{kPending};
  std::atomic<std::uint32_t> refs_{0};
  /// Parker of the first joiner that parked (parkers are never freed).
  std::atomic<common::EventCount*> waiter_{nullptr};
  bool pooled_ = false;
  std::exception_ptr error_;
};

/// Intrusive reference to a pooled CompletionState; copyable, shareable.
/// Dropping the last reference returns the state to the pool.
class CompletionRef {
 public:
  CompletionRef() = default;

  CompletionRef(const CompletionRef& other) noexcept : state_(other.state_) {
    if (state_ != nullptr) state_->add_ref();
  }

  CompletionRef(CompletionRef&& other) noexcept
      : state_(std::exchange(other.state_, nullptr)) {}

  CompletionRef& operator=(const CompletionRef& other) noexcept {
    if (this != &other) {
      CompletionState* old = state_;
      state_ = other.state_;
      if (state_ != nullptr) state_->add_ref();
      if (old != nullptr) old->release();
    }
    return *this;
  }

  CompletionRef& operator=(CompletionRef&& other) noexcept {
    if (this != &other) {
      if (state_ != nullptr) state_->release();
      state_ = std::exchange(other.state_, nullptr);
    }
    return *this;
  }

  ~CompletionRef() {
    if (state_ != nullptr) state_->release();
  }

  [[nodiscard]] CompletionState* get() const noexcept { return state_; }
  CompletionState* operator->() const noexcept { return state_; }
  CompletionState& operator*() const noexcept { return *state_; }
  explicit operator bool() const noexcept { return state_ != nullptr; }

  void reset() noexcept {
    if (state_ != nullptr) {
      state_->release();
      state_ = nullptr;
    }
  }

 private:
  friend class CompletionState;

  /// Adopts one reference already counted on `state`.
  explicit CompletionRef(CompletionState* state) noexcept : state_(state) {}

  CompletionState* state_ = nullptr;
};

inline CompletionRef CompletionState::make() {
  CompletionState* state = common::ObjectPool<CompletionState>::acquire();
  // Re-arm: the pool hands back states whose last use fully completed
  // (refs hit zero), so no thread can observe these writes racing.
  state->pooled_ = true;
  state->error_ = nullptr;
  state->refs_.store(1, std::memory_order_relaxed);
  state->waiter_.store(nullptr, std::memory_order_relaxed);
  state->phase_.store(kPending, std::memory_order_relaxed);
  return CompletionRef(state);
}

/// Lightweight handle to a CompletionState; copyable, shareable.
class TaskHandle {
 public:
  TaskHandle() = default;
  explicit TaskHandle(CompletionRef state) : state_(std::move(state)) {}

  /// True if this handle refers to an actual asynchronous submission.
  /// (Inline-executed blocks return an empty handle: they are already done.)
  [[nodiscard]] bool valid() const noexcept { return state_.get() != nullptr; }

  /// True once the block has finished (empty handles count as finished).
  [[nodiscard]] bool done() const { return !state_ || state_->done(); }

  /// True if the block completed by throwing.
  [[nodiscard]] bool failed() const { return state_ && state_->failed(); }

  /// Block until the task completes; rethrows the block's exception.
  void wait() const {
    if (state_) state_->wait();
  }

  template <class Rep, class Period>
  bool wait_for(std::chrono::duration<Rep, Period> timeout) const {
    return !state_ || state_->wait_for(timeout);
  }

  /// Rethrow the block's exception if it failed (call after done()).
  void rethrow_if_error() const {
    if (state_) state_->rethrow_if_error();
  }

  [[nodiscard]] const CompletionRef& state() const noexcept { return state_; }

 private:
  CompletionRef state_;
};

}  // namespace evmp::exec
