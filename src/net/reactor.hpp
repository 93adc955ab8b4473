#pragma once
// The epoll reactor: socket readiness in, virtual-target dispatches out.
//
// The paper's conclusion names "integrating non-blocking I/O and
// asynchronous I/O into this model" as future work; this is that front
// end. The reactor thread is an event-dispatch thread in exactly the
// paper's sense — a single thread draining a queue of events — except its
// events come from three sources instead of one:
//
//   * fd readiness, harvested edge-triggered from epoll_wait;
//   * posted tasks (the Executor interface), delivered through the
//     common::MpscList run list and an eventfd wakeup, which is how
//     completions flow *back* onto the reactor from worker targets; and
//   * timers, kept in a common::DeadlineHeap (connection idle timeouts)
//     and fired between epoll batches.
//
// Because Reactor is an exec::Executor, it registers with the Runtime as
// a named virtual target: a worker-side handler finishing a response
// simply posts its continuation here (or dispatches with
// `target virtual(<reactor>)`), keeping the continuation-in-place style
// of the directive model end to end. Everything that touches connection
// state runs on the reactor thread; cross-thread interaction happens only
// through post().

#include <atomic>
#include <cstdint>
#include <thread>

#include "common/clock.hpp"
#include "common/counters.hpp"
#include "common/deadline_heap.hpp"
#include "executor/executor.hpp"
#include "executor/task_node.hpp"
#include "net/socket.hpp"

namespace evmp::net {

/// The reactor's counters (relaxed; observability only). net::Server
/// publishes them as "<name>.reactor.<field>".
struct ReactorStats {
  std::uint64_t epoll_waits = 0;       ///< epoll_wait returns
  std::uint64_t fd_events = 0;         ///< readiness events delivered
  std::uint64_t wakeups = 0;           ///< eventfd wakeups consumed
  std::uint64_t tasks_run = 0;         ///< posted tasks executed
  std::uint64_t timers_scheduled = 0;  ///< add_timer() insertions
  std::uint64_t timers_fired = 0;      ///< timer callbacks executed

  static constexpr common::CounterField<ReactorStats> kFields[] = {
      {"epoll_waits", &ReactorStats::epoll_waits},
      {"fd_events", &ReactorStats::fd_events},
      {"wakeups", &ReactorStats::wakeups},
      {"tasks_run", &ReactorStats::tasks_run},
      {"timers_scheduled", &ReactorStats::timers_scheduled},
      {"timers_fired", &ReactorStats::timers_fired},
  };
};

/// Single-threaded edge-triggered epoll loop with a deadline-heap timer,
/// registrable as a virtual target. Not meant to be subclassed further —
/// connection logic lives in FdHandler implementations (see net::Server).
class Reactor final : public exec::Executor {
 public:
  /// Callbacks a registered descriptor receives, always on the reactor
  /// thread. A handler may close and deregister *its own* descriptor from
  /// inside a callback, but must not destroy other handlers there (their
  /// readiness may be in the same epoll batch); defer cross-handler
  /// teardown through post().
  class FdHandler {
   public:
    virtual ~FdHandler() = default;
    virtual void on_readable() = 0;
    virtual void on_writable() {}
    /// EPOLLERR/EPOLLHUP. Default: treat as readable so the owner observes
    /// the error/EOF from the next read().
    virtual void on_error() { on_readable(); }
  };

  explicit Reactor(std::string name = "reactor");
  ~Reactor() override;

  // --- lifecycle --------------------------------------------------------
  /// Spawn the reactor thread. add_fd() may be called before or after.
  void start();

  /// Ask the loop to exit, drain already-posted tasks, and join. Posted
  /// tasks arriving after stop() returns are dropped with a warning;
  /// pending timers are discarded unfired. Registered descriptors are not
  /// closed — their owners are. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  // --- Executor interface ----------------------------------------------
  /// Enqueue a task for the reactor thread and wake it. Thread-safe.
  void post(exec::Task task) override;

  /// As post(), but a task refused because the reactor already stopped is
  /// reported with `false` instead of a warning — for teardown paths where
  /// the caller has a fallback (e.g. Server::stop() clears connections
  /// itself after the join).
  bool try_post(exec::Task task);

  /// Reactor-thread only: run one queued task (lets `await` dispatched
  /// from the reactor thread keep pumping completions). Foreign threads
  /// get false.
  bool try_run_one() override;

  [[nodiscard]] std::size_t concurrency() const noexcept override {
    return 1;
  }
  [[nodiscard]] std::size_t pending() const override {
    return tasks_.size();
  }

  // --- fd registration --------------------------------------------------
  // Registration is edge-triggered (EPOLLET): a callback must consume the
  // condition fully (read/write until EAGAIN) or it will not fire again.
  // `handler` must stay valid until del_fd() (or the fd is closed). Safe
  // from any thread (epoll_ctl is kernel-side serialised), though
  // handlers are only ever *invoked* on the reactor thread.
  bool add_fd(int fd, bool want_read, bool want_write, FdHandler* handler);
  bool mod_fd(int fd, bool want_read, bool want_write, FdHandler* handler);
  void del_fd(int fd);

  // --- timers ------------------------------------------------------------
  /// Schedule `cb` to run on the reactor thread once `delay` has elapsed.
  /// Insertion is O(log n) and the epoll timeout tracks the earliest
  /// pending deadline, so an idle reactor sleeps until exactly the next
  /// timer. Thread-safe: foreign threads enqueue the insertion through
  /// post(), with the deadline stamped at the call. There is no
  /// cancellation; a callback that may have become moot re-checks its
  /// state when it fires (see Server's idle timeout).
  void add_timer(common::Nanos delay, exec::Task cb);

  [[nodiscard]] ReactorStats stats() const noexcept {
    return stats_.snapshot();
  }

 private:
  void run();
  void drain_tasks();
  void run_node(exec::TaskNode* node);
  void wake();

  // Timer internals; reactor thread only.
  void fire_due_timers();
  /// Milliseconds until the earliest pending deadline (rounded up), 0 if
  /// one is already due, -1 when no timer is pending (block forever).
  int timer_wait_ms() const noexcept;

  Fd epoll_;
  Fd wake_fd_;  ///< eventfd; level-triggered member of the epoll set

  exec::TaskList tasks_;  ///< posted tasks; closed by stop()
  std::atomic<bool> wake_pending_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};

  common::DeadlineHeap<exec::Task> timers_;  ///< reactor-thread confined

  common::Counters<ReactorStats> stats_;

  std::jthread thread_;
};

}  // namespace evmp::net
