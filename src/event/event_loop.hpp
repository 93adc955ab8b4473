#pragma once
// The event-dispatch thread (EDT) and its event queue.
//
// This is the C++ equivalent of the Swing/AWT machinery the paper builds on:
// a single thread drains a FIFO queue of events; every handler runs on that
// thread. Two properties matter for the reproduction:
//
//  * re-entrant pumping: pump_one() lets a handler dispatch *other* queued
//    events from inside itself. The paper implements its `await` logical
//    barrier by "slightly modifying the event queue dispatching mechanism in
//    the Java AWT runtime library" — pump_one() is that modification.
//  * instrumentation: the queue records per-event dispatch delay (time from
//    post to handler start), handler busy time and nesting depth, which the
//    responsiveness benchmarks (Figures 7-8) report.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>

#include "common/clock.hpp"
#include "common/deadline_heap.hpp"
#include "common/ring_buffer.hpp"
#include "common/stats.hpp"
#include "executor/completion.hpp"
#include "executor/executor.hpp"

namespace evmp::event {

/// Single-threaded event loop; doubles as an Executor so it can be
/// registered as the `edt` virtual target (paper Table II,
/// virtual_target_register_edt).
class EventLoop final : public exec::Executor {
 public:
  explicit EventLoop(std::string name = "edt");
  ~EventLoop() override;

  // --- lifecycle --------------------------------------------------------
  /// Spawn an internal thread that runs the loop. Alternative to run().
  void start();

  /// Run the loop on the calling thread until stop(). A GUI application's
  /// main thread would call this; tests/benches normally use start().
  void run();

  /// Ask the loop to exit after the currently running handler returns.
  /// Events still queued are discarded (call wait_until_idle() first if
  /// they matter). Safe from any thread; idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  // --- Executor interface ------------------------------------------------
  /// Enqueue an event handler for execution on the EDT.
  void post(exec::Task task) override;

  /// Enqueue a burst of handlers under one queue lock with one wakeup;
  /// dispatch order within the batch matches submission order, exactly as
  /// N consecutive post() calls from the same thread would. Keeps the EDT's
  /// global FIFO (single ready queue) — batching only amortises the
  /// producer-side synchronisation.
  void post_batch(std::span<exec::Task> tasks) override;

  /// EDT-only: dispatch one pending event from inside a running handler
  /// (re-entrant pump). Foreign threads get false.
  bool try_run_one() override;

  [[nodiscard]] std::size_t concurrency() const noexcept override { return 1; }
  [[nodiscard]] std::size_t pending() const override;
  /// Due time of the earliest post_delayed event: an EDT parked in
  /// `await` wakes by then to dispatch it.
  [[nodiscard]] std::optional<common::TimePoint> next_timer_due()
      const override;

  // --- Swing-style helpers -----------------------------------------------
  /// True when the calling thread is the EDT
  /// (SwingUtilities.isEventDispatchThread()).
  [[nodiscard]] bool is_dispatch_thread() const noexcept {
    return owns_current_thread();
  }

  /// SwingUtilities.invokeLater: enqueue and return immediately.
  void invoke_later(exec::Task task) { post(std::move(task)); }

  /// SwingUtilities.invokeAndWait: enqueue and block until the handler ran.
  /// Called from the EDT itself the task runs inline (Swing would throw;
  /// inline execution preserves our sequential-equivalence property).
  void invoke_and_wait(exec::Task task);

  /// Enqueue a handler to run no earlier than `delay` from now
  /// (javax.swing.Timer one-shot equivalent).
  void post_delayed(exec::Task task, common::Nanos delay);

  /// EDT-only: dispatch exactly one pending due event. Returns false when
  /// nothing is pending. This is the "processAnotherEventHandler()" of
  /// Algorithm 1 line 15.
  bool pump_one();

  /// Block the calling (non-EDT) thread until the queue is empty and no
  /// handler is running. Pending delayed events are not waited for.
  void wait_until_idle();

  // --- instrumentation ---------------------------------------------------
  /// Events fully dispatched so far. Acquire: pairs with the release bump
  /// in dispatch(), so a reader that sees an event counted also sees its
  /// busy_time() share.
  [[nodiscard]] std::uint64_t dispatched() const noexcept {
    return dispatched_.load(std::memory_order_acquire);
  }
  /// Total time the EDT has spent inside top-level handlers.
  [[nodiscard]] common::Nanos busy_time() const noexcept {
    return common::Nanos{busy_ns_.load(std::memory_order_relaxed)};
  }
  /// Deepest observed re-entrant dispatch nesting.
  [[nodiscard]] int max_nesting() const noexcept {
    return max_nesting_.load(std::memory_order_relaxed);
  }
  /// post_batch() calls accepted (events they carried count in pending()/
  /// dispatched() as usual).
  [[nodiscard]] std::uint64_t batch_posts() const noexcept {
    return batch_posts_.load(std::memory_order_relaxed);
  }
  /// Distribution of post→dispatch-start delays (EDT responsiveness).
  [[nodiscard]] const common::LatencyHistogram& dispatch_delay() const noexcept {
    return delay_hist_;
  }
  void reset_stats();

 private:
  struct QueuedEvent {
    common::TimePoint posted;
    exec::Task fn;
  };

  void dispatch(QueuedEvent ev);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  // Grow-only ring, not std::deque: the ready queue reaches a high-water
  // capacity once and then never allocates on the post/dispatch path.
  common::RingBuffer<QueuedEvent> queue_;
  // post_delayed events, already stamped: a timer's "posted" instant is its
  // due time, so dispatch delay measures queue lateness, not the delay.
  common::DeadlineHeap<QueuedEvent> timers_;
  bool stop_requested_ = false;
  int active_handlers_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> dispatched_{0};
  std::atomic<std::uint64_t> batch_posts_{0};
  std::atomic<std::int64_t> busy_ns_{0};
  std::atomic<int> max_nesting_{0};
  int nesting_ = 0;  // touched only by the EDT
  common::LatencyHistogram delay_hist_;

  std::optional<std::jthread> thread_;
};

}  // namespace evmp::event
