#include "executor/thread_pool_executor.hpp"

#include "common/logging.hpp"

namespace evmp::exec {

ThreadPoolExecutor::ThreadPoolExecutor(std::string pool_name,
                                       std::size_t num_threads)
    : Executor(std::move(pool_name)) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { worker_main(); });
  }
}

ThreadPoolExecutor::~ThreadPoolExecutor() { shutdown(); }

void ThreadPoolExecutor::post(Task task) {
  TaskNode* node = make_node(std::move(task));
  if (!queue_.push(node)) {
    (void)unwrap(node);
    EVMP_LOG_WARN << "task posted to shut-down pool '" << name()
                  << "' was dropped";
    return;
  }
  counters_.add(&common::ShardedQueueStats::pushes);
  pushed(false);
}

void ThreadPoolExecutor::post_batch(std::span<Task> tasks) {
  if (tasks.empty()) return;
  TaskChain chain(tasks);
  if (!queue_.push_chain(chain.first, chain.last, tasks.size())) {
    chain.drop();
    EVMP_LOG_WARN << "batch of " << tasks.size() << " tasks posted to "
                  << "shut-down pool '" << name() << "' was dropped";
    return;
  }
  counters_.add(&common::ShardedQueueStats::batch_pushes);
  counters_.add(&common::ShardedQueueStats::batch_items, tasks.size());
  pushed(true);
}

void ThreadPoolExecutor::pushed(bool batch) noexcept {
  counters_.raise(&common::ShardedQueueStats::max_depth, queue_.size());
  // The task is counted before the waiter count is read; a worker counts
  // itself a waiter before it re-reads the list (store buffering, DESIGN.md
  // §9.2), so either it sees the task or this notify reaches it.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (idle_.has_waiters()) {
    if (batch) {
      idle_.notify_all();  // a batch may satisfy many parked workers
    } else {
      idle_.notify_one();
    }
  }
  wake_parked_members();
}

TaskList::Pop ThreadPoolExecutor::take(TaskNode*& out) noexcept {
  const TaskList::Pop result = queue_.try_pop(out);
  if (result == TaskList::Pop::kBusy) {
    counters_.add(&common::ShardedQueueStats::collisions);
  }
  return result;
}

bool ThreadPoolExecutor::try_run_one() {
  TaskNode* node = nullptr;
  if (take(node) != TaskList::Pop::kTaken) return false;
  Task task = unwrap(node);
  run_task(task);
  return true;
}

std::size_t ThreadPoolExecutor::concurrency() const noexcept {
  return threads_.size();
}

std::size_t ThreadPoolExecutor::pending() const { return queue_.size(); }

void ThreadPoolExecutor::shutdown() {
  if (shut_down_.exchange(true)) return;
  queue_.close();      // refuse new posts; everything counted stays poppable
  idle_.notify_all();  // parked workers re-check and drain
  threads_.clear();    // jthread joins on destruction
  counters_.publish(name());
}

void ThreadPoolExecutor::worker_main() {
  ThreadBinding bind(this);
  common::SpinWait spin;
  for (;;) {
    TaskNode* node = nullptr;
    const TaskList::Pop result = take(node);
    if (result == TaskList::Pop::kTaken) {
      Task task = unwrap(node);
      run_task(task);
      spin.reset();
      continue;
    }
    // Another worker is mid-pop: its pop is a few loads, so look again.
    if (result == TaskList::Pop::kBusy) continue;
    // Closed and the count reads zero: every accepted task has been taken.
    if (queue_.closed() && queue_.size() == 0) return;
    if (spin.spin()) continue;
    // Park. A post whose task the re-check misses fenced before reading
    // the waiter count, so it sees this waiter and notifies, moving the
    // epoch (commit_wait returns at once); shutdown's close-then-notify is
    // caught the same way. A nonzero count here can also be a producer
    // between its exchange and its link: look again rather than sleep.
    const auto key = idle_.prepare_wait();
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (queue_.size() != 0 || queue_.closed()) {
      idle_.cancel_wait();
      continue;
    }
    idle_.commit_wait(key);
  }
}

}  // namespace evmp::exec
