#pragma once
// The Executor abstraction: what the paper calls a "virtual target" is, at
// runtime, an executor — a named execution environment with a thread
// affiliation (which threads belong to it) and a scale (how many threads).
//
// Three operations matter to Algorithm 1 of the paper:
//   * post()                — submit a block asynchronously (line 8);
//   * owns_current_thread() — the membership test "T ∈ E" (line 6);
//   * try_run_one()         — "process another event handler/task" used by
//                             the `await` logical barrier (lines 14-16).

#include <atomic>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/clock.hpp"
#include "executor/unique_function.hpp"

namespace evmp::common {
class EventCount;
}  // namespace evmp::common

namespace evmp::exec {

/// A unit of work submitted to an executor.
using Task = UniqueFunction<void()>;

/// Hook invoked when a fire-and-forget task throws (nowait blocks have no
/// join point at which to rethrow). Default: log and continue.
using UnhandledExceptionHook = void (*)(std::string_view executor_name,
                                        std::exception_ptr);
void set_unhandled_exception_hook(UnhandledExceptionHook hook) noexcept;
UnhandledExceptionHook unhandled_exception_hook() noexcept;

/// Abstract execution environment ("virtual target" backing).
class Executor {
 public:
  explicit Executor(std::string name) : name_(std::move(name)) {}
  virtual ~Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Submit a task for asynchronous execution. Implementations must not
  /// execute the task synchronously inside post() (Algorithm 1 handles the
  /// membership fast-path before posting).
  virtual void post(Task task) = 0;

  /// Submit a burst of tasks in one call, moving each task out of `tasks`.
  /// Queue-backed executors override this to splice the batch onto their
  /// run list in one step and notify once per batch instead of once per
  /// task; the default degrades to per-task post(). Relative order within
  /// the batch is preserved wherever post() preserves it.
  virtual void post_batch(std::span<Task> tasks) {
    for (Task& task : tasks) {
      post(std::move(task));
    }
  }

  /// True when the calling thread belongs to this executor's thread group.
  /// The default implementation uses the thread-local binding established
  /// by ThreadBinding in each worker's main loop.
  [[nodiscard]] virtual bool owns_current_thread() const noexcept {
    return current() == this;
  }

  /// Run one queued task on the *calling* thread, if any is pending.
  /// Used by member threads to make progress while logically waiting.
  /// Returns false when nothing was run (empty queue or unsupported).
  virtual bool try_run_one() = 0;

  /// Earliest instant at which try_run_one() finds work that was not
  /// posted: a pending timer falling due. A member thread parked in a join
  /// wakes no later than this. Default: no timers.
  [[nodiscard]] virtual std::optional<common::TimePoint> next_timer_due()
      const {
    return std::nullopt;
  }

  /// Number of threads serving this executor.
  [[nodiscard]] virtual std::size_t concurrency() const noexcept = 0;

  /// Tasks queued but not yet started.
  [[nodiscard]] virtual std::size_t pending() const = 0;

  [[nodiscard]] std::string_view name() const noexcept { return name_; }

  /// Total tasks fully executed by this executor.
  [[nodiscard]] std::uint64_t tasks_executed() const noexcept {
    return executed_.load(std::memory_order_relaxed);
  }

  // --- thread affiliation ----------------------------------------------
  /// Executor whose thread group the calling thread belongs to (nullptr for
  /// foreign threads, e.g. main()).
  static Executor* current() noexcept;

  /// Member threads currently parked in a join on this executor's behalf
  /// (each registered as a ParkedMember).
  [[nodiscard]] std::uint32_t parked_members() const noexcept {
    return parked_count_.load(std::memory_order_relaxed);
  }

  /// Registration of a member thread parked in a join (exec::join): while
  /// it lives, every task posted to the executor notifies `parker`. A null
  /// executor makes it a no-op. Registration precedes the joiner's final
  /// try_run_one() re-check, so a post either is seen by that re-check or
  /// sees the registration (DESIGN.md §9.2).
  class ParkedMember {
   public:
    ParkedMember(Executor* executor, common::EventCount& parker) noexcept;
    ~ParkedMember();
    ParkedMember(const ParkedMember&) = delete;
    ParkedMember& operator=(const ParkedMember&) = delete;

   private:
    friend class Executor;
    Executor* executor_;
    common::EventCount* parker_;
    ParkedMember* next_ = nullptr;
  };

 protected:
  /// The post-side half of the park protocol: every post path calls this
  /// once its task is visible to try_run_one() (and post_delayed once its
  /// timer is armed). One seq_cst load when no member is parked.
  void wake_parked_members() noexcept {
    if (parked_count_.load(std::memory_order_seq_cst) != 0) {
      notify_parked_members();
    }
  }

  /// Run a task with the executor-affiliation and exception protocol all
  /// implementations share. Exceptions escaping the task go to the
  /// unhandled-exception hook (completion-tracked tasks wrap themselves in
  /// try/catch before reaching the executor, so anything arriving here is
  /// fire-and-forget).
  void run_task(Task& task) noexcept;

  /// RAII marker binding the calling thread to this executor.
  class ThreadBinding {
   public:
    explicit ThreadBinding(Executor* e) noexcept;
    ~ThreadBinding();
    ThreadBinding(const ThreadBinding&) = delete;
    ThreadBinding& operator=(const ThreadBinding&) = delete;

   private:
    Executor* previous_;
  };

 private:
  void notify_parked_members() noexcept;

  std::string name_;
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint32_t> parked_count_{0};
  std::atomic_flag parked_lock_ = ATOMIC_FLAG_INIT;
  ParkedMember* parked_head_ = nullptr;  ///< guarded by parked_lock_
};

}  // namespace evmp::exec
