#pragma once
// The pooled task envelope the pools and the reactor queue: a Task plus the
// links of common::MpscList and common::ObjectPool. Envelopes are recycled
// the moment their task is moved out, never freed, so the steady state of
// a post allocates nothing.

#include <atomic>
#include <span>
#include <utility>

#include "common/mpsc_list.hpp"
#include "common/object_pool.hpp"
#include "executor/executor.hpp"

namespace evmp::exec {

struct TaskNode {
  Task fn;
  TaskNode* pool_next_ = nullptr;
  std::atomic<TaskNode*> next{nullptr};  ///< run-list link
};
// Slabs of 64: a thread that only releases (a worker running foreign
// posts) keeps up to 63 nodes in its cache, so a producer→consumer flow
// needs its in-flight nodes plus ~64 per consumer before the pool stops
// growing; 64-node slabs get there in a few allocations instead of a
// trickle of 16-node ones that can outlast any warmup.
using TaskNodePool = common::ObjectPool<TaskNode, 64>;
using TaskList = common::MpscList<TaskNode>;

/// Wrap `task` in a pooled envelope.
inline TaskNode* make_node(Task task) {
  TaskNode* node = TaskNodePool::acquire();
  node->fn = std::move(task);
  return node;
}

/// Move the task out and recycle the envelope (before running: a task that
/// spawns more work reuses the hot node).
inline Task unwrap(TaskNode* node) noexcept {
  Task task = std::move(node->fn);
  TaskNodePool::release(node);
  return task;
}

/// A run of envelopes linked in order through `next`, ready for
/// MpscList::push_chain.
struct TaskChain {
  TaskNode* first = nullptr;
  TaskNode* last = nullptr;

  /// Wrap every task of `tasks` (moving each out), in order.
  explicit TaskChain(std::span<Task> tasks) {
    for (Task& task : tasks) {
      TaskNode* node = make_node(std::move(task));
      node->next.store(nullptr, std::memory_order_relaxed);
      if (last == nullptr) {
        first = node;
      } else {
        last->next.store(node, std::memory_order_relaxed);
      }
      last = node;
    }
  }

  /// Destroy the tasks unrun and recycle the envelopes (a refused push).
  void drop() noexcept {
    for (TaskNode* node = first; node != nullptr;) {
      TaskNode* next = node->next.load(std::memory_order_relaxed);
      (void)unwrap(node);
      node = next;
    }
    first = last = nullptr;
  }
};

}  // namespace evmp::exec
