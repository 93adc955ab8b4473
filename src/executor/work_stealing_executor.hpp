#pragma once
// Lock-free work-stealing thread pool: the backing of a worker virtual
// target created with Runtime::create_stealing_worker (create_worker builds
// the central-queue ThreadPoolExecutor). Nested blocks stay on the worker
// that spawned them and idle workers steal, without a lock on the owner's
// path or a polled condition variable:
//
//  * each worker owns a common::ChaseLevDeque<TaskNode*> — owner push/pop
//    are fence-only (no RMW in the common case), thieves pay one CAS per
//    stolen task, and a failed steal never blocks anyone;
//  * tasks live in pooled TaskNode envelopes (common::ObjectPool), so the
//    deques move trivially-copyable pointers — the racy pre-CAS slot reads
//    Chase–Lev requires are well-defined, and the steady state allocates
//    nothing (enforced by bench_steal_throughput --alloc-check);
//  * foreign post() cannot touch a Chase–Lev bottom (owner-only), so
//    non-worker submissions go to an injection list that workers poll
//    between their own deque and stealing: the common::MpscList every
//    executor queues on, of the same TaskNodes. A foreign post is one
//    counter bump, one exchange on the list head and one link store — no
//    lock. A worker that finds the consumer side busy moves on to
//    stealing (or parks) instead of blocking, and a consumer whose pop
//    misses wakes a parked worker if nodes remain counted;
//  * at most max(1, workers/2) idle workers search (climb the spin ladder
//    re-probing every source) at once; the rest go straight to parking on
//    a common::EventCount (Go's nmspinning, Tokio's num_searching);
//  * at most one wake is in flight. post(), spread() and
//    release_injected() all wake through wake_one(), which notifies only
//    when no searcher is live, a worker is parked and no earlier wake is
//    still on its way (Go's wakep, Tokio's notify_should_wakeup). The
//    waker marks the wake pending; the first worker to leave the event
//    count's waiter set clears the mark, then re-probes and, having taken
//    a task from anywhere but its own deque, wakes the next peer while a
//    backlog remains. A burst spreads over the pool one wake at a time:
//    no 1 ms polling, no thundering herd, no futex wake aimed at a worker
//    already woken, and a producer that finds no waiters never reaches a
//    syscall;
//  * a thief walks every peer once from a pseudo-random start: a worker
//    draws its start from its own common::Xoshiro256 (seeded from its
//    index), a foreign thief takes the next slot of a shared rotation, so
//    concurrent thieves fan out instead of queueing on one victim (Go's
//    and Tokio's steal order; no cache-tier model).
//
// EVMP_PIN=1 additionally pins worker i to the (i mod count)-th CPU of the
// process's affinity set, read once at construction. Pinning is advisory:
// where sched_setaffinity is unavailable or refused the workers simply run
// unpinned (pinned_workers() reports how many stuck).
//
// bench_steal_throughput and bench_ablation_pool measure it against the
// central queue; DESIGN.md §9 documents the memory-ordering and parking
// arguments, §11.3 the pinning semantics.

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/chase_lev_deque.hpp"
#include "common/counters.hpp"
#include "common/event_count.hpp"
#include "common/rng.hpp"
#include "executor/executor.hpp"
#include "executor/task_node.hpp"

namespace evmp::exec {

/// The stealing pool's counters (relaxed; observability only), published
/// at shutdown as "<pool>.<name>".
struct WorkStealingStats {
  std::uint64_t local_pops = 0;  ///< run from the owner's deque (LIFO)
  std::uint64_t steals = 0;      ///< stolen from a peer's deque
  /// Taken from the foreign-submission injection list.
  std::uint64_t injection_pops = 0;
  /// Notifies that reached a counted waiter of the parking event count
  /// (futex wakes issued through wake_one(); shutdown wakes all waiters
  /// and is not counted).
  std::uint64_t wakes = 0;
  /// Exits from the event count's waiter set (commit or cancel). At most
  /// one wake is in flight, so wakes <= idle_exits + 1.
  std::uint64_t idle_exits = 0;
  /// Workers successfully pinned to their CPU (0 unless EVMP_PIN=1).
  std::uint64_t pinned_workers = 0;

  static constexpr common::CounterField<WorkStealingStats> kFields[] = {
      {"local_pops", &WorkStealingStats::local_pops},
      {"steals", &WorkStealingStats::steals},
      {"injection_pops", &WorkStealingStats::injection_pops},
      {"wakes", &WorkStealingStats::wakes},
      {"idle_exits", &WorkStealingStats::idle_exits},
      {"pinned_workers", &WorkStealingStats::pinned_workers},
  };
};

/// Fixed-size pool with per-worker lock-free Chase–Lev deques, a lock-free
/// injection list for foreign submissions, random-start stealing and
/// event-count parking.
class WorkStealingExecutor final : public Executor {
 public:
  /// Honours EVMP_PIN (see the header comment).
  WorkStealingExecutor(std::string name, std::size_t num_threads);
  ~WorkStealingExecutor() override;

  void post(Task task) override;
  bool try_run_one() override;
  [[nodiscard]] std::size_t concurrency() const noexcept override;
  [[nodiscard]] std::size_t pending() const override;

  /// Stop accepting tasks, drain all queues, and join. Idempotent.
  /// Publishes the WorkStealingStats counters to common::Tracer.
  void shutdown();

  [[nodiscard]] WorkStealingStats stats() const noexcept {
    return counters_.snapshot();
  }
  // Single counters of stats(), read by name.
  [[nodiscard]] std::uint64_t local_pops() const noexcept {
    return stats().local_pops;
  }
  [[nodiscard]] std::uint64_t steals() const noexcept {
    return stats().steals;
  }
  [[nodiscard]] std::uint64_t wakes() const noexcept { return stats().wakes; }
  [[nodiscard]] std::uint64_t injection_pops() const noexcept {
    return stats().injection_pops;
  }
  [[nodiscard]] std::uint64_t pinned_workers() const noexcept {
    return stats().pinned_workers;
  }

 private:
  struct Worker {
    explicit Worker(int index) : rng(static_cast<std::uint64_t>(index)) {}
    // Separate cache lines per worker happen naturally: ChaseLevDeque
    // aligns its hot indices to 64 B internally, which also keeps the
    // owner's generator off the lines thieves read.
    common::ChaseLevDeque<TaskNode*> deque;
    common::Xoshiro256 rng;  ///< steal start; touched only by the owner
  };

  /// Where take_node() found its node. kElsewhere (injection list or a
  /// steal) is what triggers the spread wake.
  enum class Took { kNothing, kOwnDeque, kElsewhere };

  /// Take a node: own deque first (LIFO), then the injection list, then
  /// steal (FIFO) from every peer once, starting at a pseudo-random one and
  /// retrying a victim on a lost CAS race. `self` < 0 means a foreign
  /// caller (no own deque; the start comes from the shared rotation).
  Took take_node(int self, TaskNode*& out);
  /// Climb the spin ladder re-probing every source, if fewer than
  /// max_searching_ workers already do; kNothing when the cap is reached
  /// or the ladder ran out. Leaves the searcher count before returning.
  Took search(int self, TaskNode*& out);
  /// Pop the oldest injected node, or nullptr when the count reads zero,
  /// another consumer holds the list, or the next node's producer is still
  /// between its exchange and its link (then injection_missed()).
  TaskNode* pop_injected() noexcept;
  /// A pop missed. With nodes still counted, wake one parked worker: a
  /// consumer turned away by the busy list meanwhile may have parked on
  /// that answer.
  void injection_missed() noexcept;
  /// The task came from the shared backlog or a peer (kElsewhere), so more
  /// may be waiting there while peers sleep: wake one. It does the same
  /// after its own take, so a burst fans out one wake at a time.
  void spread(Took took) noexcept;
  /// The one wake path of post(), spread() and injection_missed(): notify
  /// a parked worker unless a searcher is live, a wake is already in
  /// flight, nobody waits, or nothing is queued. The caller has fenced
  /// after publishing its work.
  void wake_one() noexcept;
  /// Mark a wake pending and notify. False when the notify counted no
  /// waiter: the mark is dropped again and the caller must look again.
  bool notify_marked() noexcept;
  /// Leave the event count's waiter set without sleeping, then left_idle().
  void cancel_idle() noexcept;
  /// This worker left the event count's waiter set (commit or cancel):
  /// clear the wake mark and fence, so the re-probe that follows sees any
  /// work whose wake the mark held back.
  void left_idle() noexcept;
  /// Unwrap, recycle the envelope, run. Recycling before running keeps the
  /// node hot for a task that immediately spawns more work.
  void run_node(TaskNode* node);
  void worker_main(int index);
  [[nodiscard]] int current_worker_index() const noexcept;

  // Tests hold the injection list's consumer side across posts and parks
  // to drive the turned-away-consumer interleaving, and read the wake mark
  // and the waiter-set exits.
  friend struct WorkStealingTestPeer;

  std::vector<std::unique_ptr<Worker>> workers_;
  TaskList injected_;  ///< foreign submissions; closed by shutdown()
  common::EventCount idle_;
  // Workers currently in search(); wake_one() skips its notify while
  // nonzero.
  std::atomic<std::size_t> searching_{0};
  // A wake is in flight: set by wake_one() before its notify, cleared by
  // the next worker to leave idle_'s waiter set (or by the waker when its
  // notify counted nobody). wake_one() skips its notify while set.
  std::atomic<bool> wake_pending_{false};
  const std::size_t max_searching_;  ///< max(1, workers / 2)
  // The process's allowed CPUs when EVMP_PIN=1 (worker i pins to entry
  // i mod size); empty when pinning is off or the mask was unreadable.
  std::vector<int> pin_cpus_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shut_down_{false};
  std::atomic<std::uint64_t> next_victim_{0};
  common::Counters<WorkStealingStats> counters_;
  std::vector<std::jthread> threads_;  // last: start after queues exist
};

}  // namespace evmp::exec
