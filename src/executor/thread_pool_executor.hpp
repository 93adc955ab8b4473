#pragma once
// Fixed-size worker thread pool — the backing of a `virtual(worker)` target
// created via virtual_target_create_worker(name, m) (paper Table II).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/counters.hpp"
#include "common/event_count.hpp"
#include "executor/executor.hpp"
#include "executor/task_node.hpp"

namespace evmp::common {

/// The central pool's run-list counters (relaxed; observability only),
/// published at shutdown as "<pool>.<name>". Benchmark harnesses read the
/// struct by this name.
struct ShardedQueueStats {
  std::uint64_t pushes = 0;        ///< single-task posts accepted
  std::uint64_t batch_pushes = 0;  ///< post_batch() calls accepted
  std::uint64_t batch_items = 0;   ///< tasks admitted via post_batch()
  std::uint64_t steals = 0;        ///< always 0: there is one list
  std::uint64_t collisions = 0;    ///< pops answered kBusy (consumer held)
  std::uint64_t max_depth = 0;     ///< deepest the list read after a push

  static constexpr CounterField<ShardedQueueStats> kFields[] = {
      {"posts", &ShardedQueueStats::pushes},
      {"batch_posts", &ShardedQueueStats::batch_pushes},
      {"batch_items", &ShardedQueueStats::batch_items},
      {"steals", &ShardedQueueStats::steals},
      {"collisions", &ShardedQueueStats::collisions},
      {"max_depth", &ShardedQueueStats::max_depth},
  };
};

}  // namespace evmp::common

namespace evmp::exec {

/// A named pool of `m` worker threads sharing one FIFO run list.
///
/// Posts and batches go to a common::MpscList with no lock; the workers
/// take turns on its consumer side. A worker turned away by a busy
/// consumer side looks again at once; one that finds the list empty climbs
/// the common::SpinWait ladder and then parks on a common::EventCount
/// (prepare → fence → re-check → commit, as the stealing pool does).
/// Threads are started in the constructor and joined in the destructor (or
/// an explicit shutdown()); tasks still queued at shutdown are drained
/// before the threads exit, so no accepted work is silently dropped.
///
/// A one-thread pool runs tasks strictly in submission order: the serial
/// executor of a scale-1 worker target and the base of the simulated
/// device.
class ThreadPoolExecutor : public Executor {
 public:
  ThreadPoolExecutor(std::string name, std::size_t num_threads);
  ~ThreadPoolExecutor() override;

  void post(Task task) override;
  /// The whole batch joins the list as one contiguous run, in order, with
  /// one notify.
  void post_batch(std::span<Task> tasks) override;
  bool try_run_one() override;
  [[nodiscard]] std::size_t concurrency() const noexcept override;
  [[nodiscard]] std::size_t pending() const override;

  /// Stop accepting tasks, drain the queue, and join all workers.
  /// Idempotent; called automatically by the destructor. Publishes the
  /// queue counters to common::Tracer under "<name>.<counter>".
  void shutdown();

  /// Run-list counters (posts, batches, consumer collisions, depth).
  [[nodiscard]] common::ShardedQueueStats queue_stats() const noexcept {
    return counters_.snapshot();
  }

 private:
  /// try_pop, counting kBusy answers as collisions.
  TaskList::Pop take(TaskNode*& out) noexcept;
  /// After a push: record the depth, then wake a parked worker (all of
  /// them for a batch) and any parked member.
  void pushed(bool batch) noexcept;
  void worker_main();

  TaskList queue_;
  common::EventCount idle_;  ///< parked workers
  common::Counters<common::ShardedQueueStats> counters_;
  std::vector<std::jthread> threads_;
  std::atomic<bool> shut_down_{false};
};

}  // namespace evmp::exec
