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
//
// The queue is the common::MpscList every executor runs on, so posts take
// no lock and the EDT keeps one global FIFO. post_delayed() pushes a timed
// event on the same list; the EDT files it in a DeadlineHeap only it
// touches and, once it falls due, pushes it back on the tail. The idle EDT
// waits the way every member thread does: in exec::join, with "stop
// requested" as the awaited condition, so a post wakes it through
// Executor::wake_parked_members() and a pending timer bounds its park.
// As with every executor, a producer must not race the loop's destruction:
// post() touches the loop after its event became runnable.

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>

#include "common/clock.hpp"
#include "common/deadline_heap.hpp"
#include "common/event_count.hpp"
#include "common/mpsc_list.hpp"
#include "common/object_pool.hpp"
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

  /// Enqueue a burst of handlers as one contiguous run with one timestamp
  /// and one wakeup; dispatch order within the batch matches submission
  /// order, exactly as N consecutive post() calls from the same thread
  /// would. Keeps the EDT's global FIFO (single ready queue) — batching
  /// only amortises the producer-side synchronisation.
  void post_batch(std::span<exec::Task> tasks) override;

  /// EDT-only: dispatch one pending event from inside a running handler
  /// (re-entrant pump). Foreign threads get false.
  bool try_run_one() override;

  [[nodiscard]] std::size_t concurrency() const noexcept override { return 1; }
  /// Events queued and not yet dispatched. A post_delayed event counts
  /// until the EDT has filed it with the timers, and again once due.
  [[nodiscard]] std::size_t pending() const override;
  /// EDT-only (the join that parks the EDT asks it): due time of the
  /// earliest filed post_delayed event, so the parked EDT wakes by then to
  /// dispatch it.
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
  /// handler is running (events a handler pumps count as its own), or the
  /// loop is stopped. Pending delayed events are not waited for.
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
  /// A queued event in its pooled envelope (common::ObjectPool: recycled,
  /// never freed, so the steady state allocates nothing).
  struct EventNode {
    /// Post instant; for a post_delayed event its due time, so dispatch
    /// delay measures queue lateness, not the delay.
    common::TimePoint posted;
    exec::Task fn;
    bool timed = false;  ///< post_delayed event the EDT has yet to file
    EventNode* pool_next_ = nullptr;
    std::atomic<EventNode*> next{nullptr};  ///< run-list link
  };
  using NodePool = common::ObjectPool<EventNode>;
  using EventList = common::MpscList<EventNode>;

  /// The awaited condition of the EDT's idle join.
  struct StopRequested {
    const EventLoop& loop;
    [[nodiscard]] bool done() const noexcept {
      return loop.stop_requested_.load(std::memory_order_seq_cst);
    }
    // stop() notifies through wake_parked_members(): the parked EDT is a
    // registered member, so nothing needs publishing here.
    common::EventCount& watch(common::Parker& mine) noexcept {
      return mine.events;
    }
  };

  static EventNode* make_node(common::TimePoint posted, exec::Task task,
                              bool timed);
  /// Destroy the event unrun and recycle its envelope.
  static void discard(EventNode* node) noexcept;
  /// Push a privately linked run; a refused run is discarded with a
  /// warning naming `what`.
  bool enqueue(EventNode* first, EventNode* last, std::size_t n,
               const char* what);
  /// EDT-only: push due timers back on the tail, file timed events, and
  /// pop the next immediate event (nullptr when there is none).
  EventNode* next_event();
  /// EDT-only: the top level ran out of events; release wait_until_idle().
  void went_idle() noexcept;
  void dispatch(EventNode* node);

  EventList events_;                         ///< closed by stop()
  common::DeadlineHeap<EventNode*> timers_;  ///< EDT only
  std::atomic<bool> stop_requested_{false};
  // True from the top level's first pop after idling until it next finds
  // the list empty, so nested pumps count as the running handler's. Set
  // before the pop whose count decrement a waiter may read. EDT-written.
  std::atomic<bool> busy_{false};
  common::EventCount idle_waiters_;  ///< wait_until_idle() callers

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
