#include "executor/work_stealing_executor.hpp"

#include <sched.h>

#include <algorithm>
#include <string>

#include "common/env.hpp"
#include "common/logging.hpp"

namespace evmp::exec {

namespace {
// Which worker of which stealing pool the current thread is (set once in
// worker_main; -1 on foreign threads).
thread_local const WorkStealingExecutor* t_pool = nullptr;
thread_local int t_worker_index = -1;

// The CPUs this process may run on, ascending; empty if the mask cannot be
// read.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}
}  // namespace

WorkStealingExecutor::WorkStealingExecutor(std::string pool_name,
                                           std::size_t num_threads)
    : Executor(std::move(pool_name)),
      max_searching_(std::max<std::size_t>(1, num_threads / 2)) {
  if (num_threads == 0) num_threads = 1;
  if (common::env_bool("EVMP_PIN").value_or(false)) pin_cpus_ = allowed_cpus();
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>(static_cast<int>(i)));
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
  TaskNode* node = make_node(std::move(task));
  const int self = current_worker_index();
  if (self >= 0) {
    // Own deque, LIFO end: no lock, no RMW — slot store + release fence.
    workers_[static_cast<std::size_t>(self)]->deque.push_bottom(node);
  } else if (!injected_.push(node)) {
    // Foreign threads may not touch a Chase–Lev bottom; they inject, and
    // the list refuses them once shutdown() closed it.
    (void)unwrap(node);
    EVMP_LOG_WARN << "task posted to shut-down stealing pool '" << name()
                  << "' was dropped";
    return;
  }
  // The node is visible before wake_one() reads the searcher count, the
  // wake mark and the waiter count; each has a party that fences after
  // writing it and then re-probes (DESIGN.md §9.2), so either we notify or
  // that party sees the node.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  wake_one();
  wake_parked_members();
}

TaskNode* WorkStealingExecutor::pop_injected() noexcept {
  TaskNode* node = nullptr;
  switch (injected_.try_pop(node)) {
    case TaskList::Pop::kTaken:
      counters_.add(&WorkStealingStats::injection_pops);
      return node;
    case TaskList::Pop::kEmpty:
      injection_missed();
      return nullptr;
    case TaskList::Pop::kBusy:
      // "Nothing here" for this consumer, which may park on that answer;
      // the holder covers it on the way out: injection_missed() after a
      // miss, spread() after a take.
      return nullptr;
  }
  return nullptr;
}

void WorkStealingExecutor::injection_missed() noexcept {
  // A miss with the count still up means a producer is between its count
  // and its link. A consumer turned away by the busy list meanwhile may
  // have parked on that answer, and that producer may have skipped its
  // notify for a searcher that was turned away too: wake one waiter to
  // re-probe.
  if (injected_.size() != 0) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    wake_one();
  }
}

WorkStealingExecutor::Took WorkStealingExecutor::take_node(int self,
                                                           TaskNode*& out) {
  // 1. Own deque, newest first (locality: the task most likely to have its
  //    captures still in this core's cache).
  if (self >= 0) {
    if (workers_[static_cast<std::size_t>(self)]->deque.pop_bottom(out)) {
      counters_.add(&WorkStealingStats::local_pops);
      return Took::kOwnDeque;
    }
  }
  // 2. Foreign submissions from the injection list (non-blocking).
  if (TaskNode* injected = pop_injected()) {
    out = injected;
    return Took::kElsewhere;
  }
  // 3. Steal oldest-first, walking every peer once from a pseudo-random
  //    start so concurrent thieves fan out: a worker draws the start from
  //    its own generator, a foreign thief (try_run_one from outside, the
  //    shutdown drain) from the shared rotation. A lost CAS (kAbort) means
  //    the victim demonstrably has traffic — retry it rather than walking
  //    away from a deque that had work an instant ago.
  using Steal = common::ChaseLevDeque<TaskNode*>::Steal;
  const std::size_t n = workers_.size();
  const std::size_t start =
      self >= 0 ? workers_[static_cast<std::size_t>(self)]->rng.next_below(n)
                : next_victim_.fetch_add(1, std::memory_order_relaxed) % n;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t v = (start + k) % n;
    if (static_cast<int>(v) == self) continue;
    auto& victim = workers_[v]->deque;
    for (;;) {
      const Steal result = victim.steal_top(out);
      if (result == Steal::kSuccess) {
        counters_.add(&WorkStealingStats::steals);
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
  // a trickle of posts, and every extra one spins on lines the producers
  // and the other workers write.
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
  Task task = unwrap(node);
  run_task(task);
}

void WorkStealingExecutor::spread(Took took) noexcept {
  if (took == Took::kElsewhere) wake_one();
}

void WorkStealingExecutor::wake_one() noexcept {
  // A live searcher will find the work; a set mark means a woken worker
  // has yet to leave the waiter set, and it re-probes (and spreads) once
  // it does. Otherwise a futex wake is worth its syscall while someone
  // is parked and work is queued.
  while (searching_.load(std::memory_order_relaxed) == 0 &&
         !wake_pending_.load(std::memory_order_relaxed) &&
         idle_.has_waiters() && pending() != 0) {
    if (notify_marked()) return;
  }
}

bool WorkStealingExecutor::notify_marked() noexcept {
  // Lost the race for the mark: that waker's wake covers this one.
  if (wake_pending_.exchange(true, std::memory_order_acq_rel)) return true;
  if (idle_.notify_one()) {
    counters_.add(&WorkStealingStats::wakes);
    return true;
  }
  // The waiter seen by the caller left before the notify, so no exit will
  // clear this mark: drop it. A site may have skipped its wake on the mark
  // meanwhile, for a worker that parked after the notify; the fence makes
  // the caller's next look see that waiter and the work it skipped for.
  wake_pending_.store(false, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  return false;
}

void WorkStealingExecutor::cancel_idle() noexcept {
  idle_.cancel_wait();
  left_idle();
}

void WorkStealingExecutor::left_idle() noexcept {
  counters_.add(&WorkStealingStats::idle_exits);
  wake_pending_.store(false, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

bool WorkStealingExecutor::try_run_one() {
  TaskNode* node = nullptr;
  const Took took = take_node(current_worker_index(), node);
  if (took == Took::kNothing) return false;
  // A worker may have found the injection flag held by this helper and
  // parked; the helper never parks, so it spreads like a worker does.
  spread(took);
  run_node(node);
  return true;
}

std::size_t WorkStealingExecutor::concurrency() const noexcept {
  return threads_.size();
}

std::size_t WorkStealingExecutor::pending() const {
  std::size_t total = injected_.size();
  for (const auto& w : workers_) {
    total += w->deque.size();
  }
  return total;
}

void WorkStealingExecutor::shutdown() {
  if (shut_down_.exchange(true)) return;
  stopping_.store(true, std::memory_order_release);
  injected_.close();  // foreign posts are refused from here on
  idle_.notify_all();
  threads_.clear();  // jthread joins; workers drain before exiting

  // A post() accepted before the close may have slipped a node in after
  // its worker's final scan, or still be between its exchange and its
  // link; drain stragglers on this thread until the count reads zero.
  TaskNode* node = nullptr;
  for (;;) {
    if (take_node(-1, node) != Took::kNothing) {
      run_node(node);
    } else if (injected_.size() == 0) {
      break;
    } else {
      std::this_thread::yield();
    }
  }

  counters_.publish(name());
}

namespace {
// Restrict the calling thread to `cpu`; false if the kernel refuses.
bool pin_current_thread(int cpu) noexcept {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}
}  // namespace

void WorkStealingExecutor::worker_main(int index) {
  ThreadBinding bind(this);
  t_pool = this;
  t_worker_index = index;
  if (!pin_cpus_.empty()) {
    // Advisory: a refused sched_setaffinity (cpuset changed since
    // construction) leaves the worker unpinned — correctness never
    // depends on placement.
    const int cpu =
        pin_cpus_[static_cast<std::size_t>(index) % pin_cpus_.size()];
    if (pin_current_thread(cpu)) {
      counters_.add(&WorkStealingStats::pinned_workers);
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
      // Park. prepare→fence→re-check→commit against the EventCount: a
      // post whose node the re-check misses fenced before reading the
      // waiter count, so it sees this waiter (the store-buffering pair)
      // and either notifies — moving the epoch, so commit_wait returns at
      // once — or skips for a live searcher or a wake in flight, whose
      // worker re-probes after its own fence. Shutdown's notify_all is
      // caught the same way.
      const auto key = idle_.prepare_wait();
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (stopping_.load(std::memory_order_acquire)) {
        cancel_idle();
        continue;  // loop top drains, then exits via the stopping check
      }
      took = take_node(index, node);
      if (took == Took::kNothing) {
        idle_.commit_wait(key);
        left_idle();
        continue;
      }
      cancel_idle();
    }
    // (After local pops a spread costs a spawn tree more than it gains.)
    spread(took);
    run_node(node);
  }
  t_pool = nullptr;
  t_worker_index = -1;
}

}  // namespace evmp::exec
