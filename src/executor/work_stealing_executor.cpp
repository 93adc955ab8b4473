#include "executor/work_stealing_executor.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "common/env.hpp"
#include "common/logging.hpp"
#include "common/tracing.hpp"

namespace evmp::exec {

namespace {
// Which worker of which stealing pool the current thread is (set once in
// worker_main; -1 on foreign threads).
thread_local const WorkStealingExecutor* t_pool = nullptr;
thread_local int t_worker_index = -1;

// Foreign post_batch() wraps tasks in nodes through this stack staging
// area, one injection push_batch per chunk — bounded so a burst of any
// size stays allocation-free here.
constexpr std::size_t kBatchChunk = 64;
}  // namespace

WorkStealingExecutor::WorkStealingExecutor(std::string pool_name,
                                           std::size_t num_threads)
    : WorkStealingExecutor(
          std::move(pool_name), num_threads, common::Topology::instance(),
          common::env_bool("EVMP_PIN").value_or(false)) {}

WorkStealingExecutor::WorkStealingExecutor(std::string pool_name,
                                           std::size_t num_threads,
                                           const common::Topology& topo,
                                           bool pin)
    : Executor(std::move(pool_name)),
      max_searching_(std::max<std::size_t>(1, num_threads / 2)),
      pin_workers_(pin) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  const int n = static_cast<int>(num_threads);
  for (int i = 0; i < n; ++i) {
    auto worker = std::make_unique<Worker>();
    // Near-before-far probe order, randomised within each distance tier
    // (per-worker seed: deterministic across runs, distinct across
    // workers so equal-tier thieves fan out).
    auto order = topo.victim_order(i, n, 0x5eed);
    worker->victims = std::move(order.order);
    worker->near_victims = order.near_count;
    worker->cpu = topo.cpu(topo.cpu_for_worker(i)).id;
    workers_.push_back(std::move(worker));
  }
  if (pin_workers_) {
    // Producer locality → shard locality: hash foreign posts by the CPU
    // they run on instead of by thread identity.
    injection_.set_cpu_home(true);
  }
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { worker_main(static_cast<int>(i)); });
  }
}

WorkStealingExecutor::~WorkStealingExecutor() { shutdown(); }

int WorkStealingExecutor::current_worker_index() const noexcept {
  return t_pool == this ? t_worker_index : -1;
}

void WorkStealingExecutor::post(Task task) {
  if (stopping_.load(std::memory_order_acquire)) {
    EVMP_LOG_WARN << "task posted to shut-down stealing pool '" << name()
                  << "' was dropped";
    return;
  }
  TaskNode* node = NodePool::acquire();
  node->fn = std::move(task);
  const int self = current_worker_index();
  if (self >= 0) {
    // Own deque, LIFO end: no lock, no RMW — slot store + release fence.
    workers_[static_cast<std::size_t>(self)]->deque.push_bottom(node);
  } else {
    // Foreign threads may not touch a Chase–Lev bottom; inject instead.
    injection_.push(node);
  }
  // Dekker with search()'s exit: the node is visible before we read the
  // searcher count, and a searcher decrements before its last re-probe.
  // So either we see zero and notify, or that searcher sees the node.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (searching_.load(std::memory_order_relaxed) == 0) idle_.notify_one();
  wake_parked_members();
}

void WorkStealingExecutor::post_batch(std::span<Task> tasks) {
  if (tasks.empty()) return;
  if (stopping_.load(std::memory_order_acquire)) {
    EVMP_LOG_WARN << "batch of " << tasks.size()
                  << " tasks posted to shut-down stealing pool '" << name()
                  << "' was dropped";
    return;
  }
  const int self = current_worker_index();
  if (self >= 0) {
    // Own deque: append in order behind existing work, like N posts.
    auto& deque = workers_[static_cast<std::size_t>(self)]->deque;
    for (Task& task : tasks) {
      TaskNode* node = NodePool::acquire();
      node->fn = std::move(task);
      deque.push_bottom(node);
    }
    std::atomic_thread_fence(std::memory_order_seq_cst);  // see post()
  } else {
    // Foreign burst: one injection shard for the whole batch keeps its
    // relative order FIFO; chunked staging keeps this path heap-free.
    const std::size_t shard = injection_.home_shard();
    std::array<TaskNode*, kBatchChunk> staged;
    std::size_t i = 0;
    while (i < tasks.size()) {
      const std::size_t m = std::min(kBatchChunk, tasks.size() - i);
      for (std::size_t j = 0; j < m; ++j) {
        TaskNode* node = NodePool::acquire();
        node->fn = std::move(tasks[i + j]);
        staged[j] = node;
      }
      injection_.push_batch_to(shard, std::span(staged.data(), m));
      i += m;
    }
  }
  batch_posts_.fetch_add(1, std::memory_order_relaxed);
  idle_.notify_all();  // a batch may satisfy many parked workers
  wake_parked_members();
}

WorkStealingExecutor::Took WorkStealingExecutor::take_node(int self,
                                                           TaskNode*& out) {
  // 1. Own deque, newest first (locality: the task most likely to have its
  //    captures still in this core's cache).
  if (self >= 0) {
    if (workers_[static_cast<std::size_t>(self)]->deque.pop_bottom(out)) {
      local_pops_.fetch_add(1, std::memory_order_relaxed);
      return Took::kOwnDeque;
    }
  }
  // 2. Foreign submissions from the injection queue (non-blocking).
  const std::size_t home = self >= 0 ? static_cast<std::size_t>(self)
                                     : injection_.home_shard();
  if (auto injected = injection_.try_pop(home)) {
    out = *injected;
    injection_pops_.fetch_add(1, std::memory_order_relaxed);
    return Took::kElsewhere;
  }
  // 3. Steal oldest-first, near victims before far ones. A lost CAS
  //    (kAbort) means the victim demonstrably has traffic — retry it
  //    rather than walking away from a deque that had work an instant ago.
  using Steal = common::ChaseLevDeque<TaskNode*>::Steal;
  if (self >= 0) {
    // Worker thief: probe this worker's topology-ordered victim list (SMT
    // sibling, LLC peers, node peers, remote — shuffled within tiers at
    // construction). Always starting at the nearest victim is the point:
    // a hit there keeps the task's captures inside the shared cache.
    const Worker& me = *workers_[static_cast<std::size_t>(self)];
    for (std::size_t k = 0; k < me.victims.size(); ++k) {
      auto& victim =
          workers_[static_cast<std::size_t>(me.victims[k])]->deque;
      for (;;) {
        const Steal result = victim.steal_top(out);
        if (result == Steal::kSuccess) {
          steals_.fetch_add(1, std::memory_order_relaxed);
          if (k < me.near_victims) {
            near_steals_.fetch_add(1, std::memory_order_relaxed);
          }
          return Took::kElsewhere;
        }
        if (result == Steal::kEmpty) break;
      }
    }
    return Took::kNothing;
  }
  // Foreign thief (try_run_one from outside, shutdown drain): no locality
  // to exploit — rotate uniformly so repeated helpers spread out.
  const std::size_t n = workers_.size();
  const std::size_t start =
      next_victim_.fetch_add(1, std::memory_order_relaxed) % n;
  for (std::size_t k = 0; k < n; ++k) {
    auto& victim = workers_[(start + k) % n]->deque;
    for (;;) {
      const Steal result = victim.steal_top(out);
      if (result == Steal::kSuccess) {
        steals_.fetch_add(1, std::memory_order_relaxed);
        return Took::kElsewhere;
      }
      if (result == Steal::kEmpty) break;
    }
  }
  return Took::kNothing;
}

WorkStealingExecutor::Took WorkStealingExecutor::search(int self,
                                                        TaskNode*& out) {
  // Join the searchers only below the cap: one spinner is enough to catch
  // a trickle of posts, and every extra one fights the producer for the
  // injection shard locks it probes.
  std::size_t n = searching_.load(std::memory_order_relaxed);
  do {
    if (n >= max_searching_) return Took::kNothing;
  } while (!searching_.compare_exchange_weak(n, n + 1,
                                             std::memory_order_relaxed));
  // Pause-spins, then yields (straight to parking on a single-core host),
  // re-probing all sources each step.
  Took took = Took::kNothing;
  common::SpinWait spin;
  while (spin.spin()) {
    took = take_node(self, out);
    if (took != Took::kNothing) break;
    if (stopping_.load(std::memory_order_acquire)) break;
  }
  // Leave before the caller's park re-check or spread check, and fence so
  // those probes are ordered after the decrement (pairs with post()).
  searching_.fetch_sub(1, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  return took;
}

void WorkStealingExecutor::run_node(TaskNode* node) {
  Task task = std::move(node->fn);
  NodePool::release(node);  // recycle before running: spawned children reuse it
  run_task(task);
}

bool WorkStealingExecutor::try_run_one() {
  TaskNode* node = nullptr;
  if (take_node(current_worker_index(), node) == Took::kNothing) return false;
  run_node(node);
  return true;
}

std::size_t WorkStealingExecutor::concurrency() const noexcept {
  return threads_.size();
}

std::size_t WorkStealingExecutor::pending() const {
  std::size_t total = injection_.size();
  for (const auto& w : workers_) {
    total += w->deque.size();
  }
  return total;
}

void WorkStealingExecutor::shutdown() {
  if (shut_down_.exchange(true)) return;
  stopping_.store(true, std::memory_order_release);
  idle_.notify_all();
  threads_.clear();  // jthread joins; workers drain before exiting

  // A post() racing shutdown may have slipped a node in after its worker's
  // final scan; drain stragglers on this thread so nothing is stranded.
  TaskNode* node = nullptr;
  while (take_node(-1, node) != Took::kNothing) run_node(node);

  auto& tracer = common::Tracer::instance();
  const std::string prefix(name());
  tracer.set_counter(prefix + ".local_pops",
                     local_pops_.load(std::memory_order_relaxed));
  tracer.set_counter(prefix + ".steals",
                     steals_.load(std::memory_order_relaxed));
  tracer.set_counter(prefix + ".near_steals",
                     near_steals_.load(std::memory_order_relaxed));
  tracer.set_counter(prefix + ".far_steals", far_steals());
  if (pin_workers_) {
    tracer.set_counter(prefix + ".pinned_workers",
                       pinned_workers_.load(std::memory_order_relaxed));
  }
  tracer.set_counter(prefix + ".injection_pops",
                     injection_pops_.load(std::memory_order_relaxed));
  tracer.set_counter(prefix + ".batch_posts",
                     batch_posts_.load(std::memory_order_relaxed));
}

std::vector<int> WorkStealingExecutor::victim_order_for(int worker) const {
  return workers_.at(static_cast<std::size_t>(worker))->victims;
}

std::size_t WorkStealingExecutor::near_victims_of(int worker) const {
  return workers_.at(static_cast<std::size_t>(worker))->near_victims;
}

void WorkStealingExecutor::worker_main(int index) {
  ThreadBinding bind(this);
  t_pool = this;
  t_worker_index = index;
  if (pin_workers_) {
    // Advisory: a refused sched_setaffinity (cpuset limits, non-Linux)
    // leaves the worker unpinned — correctness never depends on placement.
    const int cpu = workers_[static_cast<std::size_t>(index)]->cpu;
    if (common::Topology::pin_current_thread(cpu)) {
      pinned_workers_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  TaskNode* node = nullptr;
  for (;;) {
    Took took = take_node(index, node);
    if (took == Took::kNothing) {
      if (stopping_.load(std::memory_order_acquire)) break;  // scan drained
      took = search(index, node);
    }
    if (took == Took::kNothing) {
      // Park. prepare→re-check→commit against the EventCount: a post that
      // lands after the re-check bumps the epoch (its notify RMW is
      // ordered after our prepare RMW on the same word), so commit_wait
      // returns immediately — no lost wakeup. A post that skipped its
      // notify because a searcher was live is caught by that searcher's
      // exit. Shutdown's notify_all is caught the same way.
      const auto key = idle_.prepare_wait();
      if (stopping_.load(std::memory_order_acquire)) {
        idle_.cancel_wait();
        continue;  // loop top drains, then exits via the stopping check
      }
      took = take_node(index, node);
      if (took == Took::kNothing) {
        idle_.commit_wait(key);
        continue;
      }
      idle_.cancel_wait();
    }
    // Spread: the task came from the shared backlog or a peer, so more may
    // be waiting there while peers sleep. Wake one; it does the same after
    // its own take, so a burst fans out one wake at a time. (After local
    // pops this costs a spawn tree more than it gains.)
    if (took == Took::kElsewhere && idle_.has_waiters() && pending() != 0) {
      idle_.notify_one();
    }
    run_node(node);
  }
  t_pool = nullptr;
  t_worker_index = -1;
}

}  // namespace evmp::exec
