#pragma once
// Fixed-size worker thread pool — the backing of a `virtual(worker)` target
// created via virtual_target_create_worker(name, m) (paper Table II).

#include <cstddef>
#include <thread>
#include <vector>

#include "common/sharded_queue.hpp"
#include "executor/executor.hpp"

namespace evmp::exec {

/// A named pool of `m` worker threads sharing one sharded FIFO run queue.
///
/// The queue is striped so disjoint producers take disjoint locks (see
/// common::ShardedMpmcQueue); each worker drains its own home shard first
/// and pulls from sibling shards when dry, and post_batch() admits a whole
/// burst under one lock. Threads are started in the constructor and joined
/// in the destructor (or an explicit shutdown()); tasks still queued at
/// shutdown are drained before the threads exit, so no accepted work is
/// silently dropped.
///
/// The queue has one shard per worker (rounded up to a power of two), so
/// a one-thread pool is a single-lock FIFO served by one dedicated thread:
/// tasks run strictly in submission order. That is the serial executor of
/// a scale-1 worker target and the base of the simulated device.
class ThreadPoolExecutor : public Executor {
 public:
  ThreadPoolExecutor(std::string name, std::size_t num_threads);
  ~ThreadPoolExecutor() override;

  void post(Task task) override;
  bool try_post(Task task) override;
  void post_batch(std::span<Task> tasks) override;
  bool try_run_one() override;
  [[nodiscard]] std::size_t concurrency() const noexcept override;
  [[nodiscard]] std::size_t pending() const override;

  /// Stop accepting tasks, drain the queue, and join all workers.
  /// Idempotent; called automatically by the destructor. Publishes the
  /// queue counters to common::Tracer under "<name>.<counter>".
  void shutdown();

  /// Bound the run queue for try_post() (0 = unbounded). post() is never
  /// bounded — see Executor::try_post for the contract split.
  void set_queue_capacity(std::size_t capacity) noexcept {
    queue_.set_capacity(capacity);
  }

  [[nodiscard]] std::size_t queue_capacity() const noexcept {
    return queue_.capacity();
  }

  /// Run-queue fan-in counters (posts, batches, steals, collisions ...).
  [[nodiscard]] common::ShardedQueueStats queue_stats() const noexcept {
    return queue_.stats();
  }

 private:
  void worker_main(std::size_t index);

  common::ShardedMpmcQueue<Task> queue_;
  std::vector<std::jthread> threads_;
  std::atomic<bool> shut_down_{false};
};

}  // namespace evmp::exec
