#pragma once
// The pooled task envelope the pools and the reactor queue: a Task plus the
// links of common::MpscList and common::ObjectPool. Envelopes are recycled
// the moment their task is moved out, never freed, so the steady state of
// a post allocates nothing.

#include <atomic>
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

}  // namespace evmp::exec
