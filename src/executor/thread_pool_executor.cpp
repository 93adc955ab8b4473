#include "executor/thread_pool_executor.hpp"

#include <string>

#include "common/logging.hpp"
#include "common/tracing.hpp"

namespace evmp::exec {

namespace {
// Index of the calling worker within its pool's thread vector; used as the
// home-shard hint so worker i drains shard (i mod shards) first. -1 on
// foreign threads.
thread_local const ThreadPoolExecutor* t_pool = nullptr;
thread_local std::size_t t_worker_index = 0;
}  // namespace

ThreadPoolExecutor::ThreadPoolExecutor(std::string pool_name,
                                       std::size_t num_threads)
    : Executor(std::move(pool_name)),
      queue_(num_threads == 0 ? 1 : num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

ThreadPoolExecutor::~ThreadPoolExecutor() { shutdown(); }

void ThreadPoolExecutor::post(Task task) {
  if (!queue_.push(std::move(task))) {
    EVMP_LOG_WARN << "task posted to shut-down pool '" << name()
                  << "' was dropped";
  }
}

bool ThreadPoolExecutor::try_post(Task task) {
  return queue_.try_push(std::move(task));
}

void ThreadPoolExecutor::post_batch(std::span<Task> tasks) {
  if (tasks.empty()) return;
  if (queue_.push_batch(tasks) == 0) {
    EVMP_LOG_WARN << "batch of " << tasks.size() << " tasks posted to "
                  << "shut-down pool '" << name() << "' was dropped";
  }
}

bool ThreadPoolExecutor::try_run_one() {
  auto task = t_pool == this ? queue_.try_pop(t_worker_index)
                             : queue_.try_pop();
  if (!task) return false;
  run_task(*task);
  return true;
}

std::size_t ThreadPoolExecutor::concurrency() const noexcept {
  return threads_.size();
}

std::size_t ThreadPoolExecutor::pending() const { return queue_.size(); }

void ThreadPoolExecutor::shutdown() {
  if (shut_down_.exchange(true)) return;
  queue_.close();
  threads_.clear();  // jthread joins on destruction

  const auto s = queue_.stats();
  auto& tracer = common::Tracer::instance();
  const std::string prefix(name());
  tracer.set_counter(prefix + ".posts", s.pushes);
  tracer.set_counter(prefix + ".batch_posts", s.batch_pushes);
  tracer.set_counter(prefix + ".batch_items", s.batch_items);
  tracer.set_counter(prefix + ".steals", s.steals);
  tracer.set_counter(prefix + ".shard_collisions", s.collisions);
  tracer.set_counter(prefix + ".max_shard_depth", s.max_depth);
  tracer.set_counter(prefix + ".rejections", s.rejections);
}

void ThreadPoolExecutor::worker_main(std::size_t index) {
  ThreadBinding bind(this);
  t_pool = this;
  t_worker_index = index;
  while (auto task = queue_.pop(index)) {
    run_task(*task);
  }
  // pop() returned nullopt: queue closed and fully drained.
  t_pool = nullptr;
  t_worker_index = 0;
}

}  // namespace evmp::exec
