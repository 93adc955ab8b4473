// ST1 — steal throughput and fork-join region latency: the lock-free
// Chase–Lev WorkStealingExecutor on a recursive spawn tree, plus pooled vs
// per-region fork-join teams (the Figure 9 oversubscription fix).
//
// Workloads:
//  * spawn-tree: each task posts two children down to a given depth — the
//    steal-heavy recursive pattern where deque contention dominates.
//  * region latency: a trivial width-W parallel region per iteration,
//    once with a freshly constructed fj::Team per region (the paper's
//    per-event pathology) and once leasing from fj::TeamPool.
//
// With --alloc-check=<budgets.json>, a paced steady-state spawn-tree loop
// then measures process-wide heap allocations per executed task and exits
// nonzero when the rate exceeds the budget file's
// "allocs_per_steal_dispatch" — the CI perf-smoke gate for the
// zero-allocation steady-state claim (TaskNode recycling via ObjectPool,
// retained Chase–Lev buffers, ring-buffer injection shards).

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <new>
#include <string>

#include "common/cli.hpp"
#include "common/clock.hpp"
#include "common/sync.hpp"
#include "common/table.hpp"
#include "executor/work_stealing_executor.hpp"
#include "forkjoin/team.hpp"
#include "forkjoin/team_pool.hpp"

// GCC pairs the replaced operator new (malloc-backed) with calls to the
// replaced sized/aligned deletes and flags them as mismatched even though
// every path ends in free(); silence that known false positive here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

// --- allocation-counting operator new/delete interposer -------------------
// Unlike bench_overhead's submitter-thread counter, this one is
// process-wide: the steal path allocates (or must not) on worker threads,
// so every thread's allocations count against the budget.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

std::uint64_t process_allocs() noexcept {
  return g_alloc_count.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size == 0 ? align : size) != 0) return nullptr;
  return p;
}
}  // namespace

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using evmp::common::read_budget;
using evmp::exec::WorkStealingExecutor;

/// Post two children per task down to `depth`; leaves release the latch.
void spawn_tree(WorkStealingExecutor& pool,
                evmp::common::CountdownLatch& latch, int depth, int spin_us) {
  if (spin_us > 0) evmp::common::busy_spin(evmp::common::Micros{spin_us});
  if (depth == 0) {
    latch.count_down();
    return;
  }
  pool.post([&pool, &latch, depth, spin_us] {
    spawn_tree(pool, latch, depth - 1, spin_us);
  });
  pool.post([&pool, &latch, depth, spin_us] {
    spawn_tree(pool, latch, depth - 1, spin_us);
  });
}

/// Run `roots` spawn trees of the given depth; returns wall ms and (via
/// `tasks_out`) the number of tasks executed: roots * (2^(depth+1) - 1).
double run_tree(WorkStealingExecutor& pool, int roots, int depth, int spin_us,
                std::uint64_t* tasks_out) {
  const auto leaves = static_cast<std::uint64_t>(roots) << depth;
  evmp::common::CountdownLatch latch(static_cast<std::size_t>(leaves));
  const evmp::common::Stopwatch sw;
  for (int r = 0; r < roots; ++r) {
    pool.post([&pool, &latch, depth, spin_us] {
      spawn_tree(pool, latch, depth, spin_us);
    });
  }
  latch.wait();
  const double ms = sw.elapsed_ms();
  if (tasks_out != nullptr) {
    *tasks_out = static_cast<std::uint64_t>(roots) * ((2ull << depth) - 1);
  }
  return ms;
}

double run_regions_fresh(int regions, int width) {
  const evmp::common::Stopwatch sw;
  for (int i = 0; i < regions; ++i) {
    evmp::fj::Team team(width);
    team.parallel([](int, int) {});
  }
  return sw.elapsed_ms();
}

double run_regions_pooled(int regions, int width) {
  const evmp::common::Stopwatch sw;
  for (int i = 0; i < regions; ++i) {
    auto team = evmp::fj::TeamPool::instance().lease(width);
    team->parallel([](int, int) {});
  }
  return sw.elapsed_ms();
}

// --- steady-state allocation self-check (--alloc-check) -------------------

/// Measure steady-state allocations per adaptive TeamPool lease. After a
/// warm-up that parks a team and settles the governor's decay cycle, each
/// lease is a width decision (relaxed atomics), a bucket pop and a bucket
/// push — the heap is never touched (budget "allocs_per_adaptive_lease").
int run_adaptive_lease_alloc_check(const std::string& budget_path,
                                   int width) {
  const double budget =
      read_budget(budget_path, "allocs_per_adaptive_lease", 0.0);
  auto& pool = evmp::fj::TeamPool::instance();

  constexpr int kWarmupLeases = 256;   // > WidthGovernor::kDecayPeriod
  constexpr int kMeasuredLeases = 512;
  for (int i = 0; i < kWarmupLeases; ++i) {
    auto team = pool.lease_adaptive(width);
    team->parallel([](int, int) {});
  }

  const std::uint64_t before = process_allocs();
  for (int i = 0; i < kMeasuredLeases; ++i) {
    auto team = pool.lease_adaptive(width);
    team->parallel([](int, int) {});
  }
  const std::uint64_t delta = process_allocs() - before;

  const double per_lease =
      static_cast<double>(delta) / static_cast<double>(kMeasuredLeases);
  std::printf(
      "alloc-check: %llu process-wide allocations over %d adaptive leases "
      "=> %.5f allocs/lease (budget %.5f)\n",
      static_cast<unsigned long long>(delta), kMeasuredLeases, per_lease,
      budget);
  if (per_lease > budget) {
    std::fprintf(stderr,
                 "alloc-check FAILED: %.5f allocs/adaptive-lease exceeds "
                 "budget %.5f\n",
                 per_lease, budget);
    return 1;
  }
  std::printf("adaptive-lease alloc-check passed\n");
  return 0;
}

/// Measure steady-state allocations per executed task across the whole
/// process. Paced in identical rounds so the ObjectPool population, the
/// Chase–Lev buffers and the injection ring shards all reach their
/// high-water marks during warmup; the measured phase then repeats the
/// exact same pattern and should touch the heap zero times.
int run_alloc_check(const std::string& budget_path, int threads) {
  const double budget =
      read_budget(budget_path, "allocs_per_steal_dispatch", 0.0);
  evmp::exec::WorkStealingExecutor pool(
      "alloc-check", static_cast<std::size_t>(threads));

  constexpr int kRoots = 4;
  constexpr int kDepth = 8;  // 4 * (2^9 - 1) = 2044 tasks per round
  constexpr int kWarmupRounds = 32;
  constexpr int kMeasuredRounds = 64;
  std::uint64_t tasks_per_round = 0;
  for (int i = 0; i < kWarmupRounds; ++i) {
    run_tree(pool, kRoots, kDepth, 0, &tasks_per_round);
  }

  const std::uint64_t before = process_allocs();
  for (int i = 0; i < kMeasuredRounds; ++i) {
    run_tree(pool, kRoots, kDepth, 0, nullptr);
  }
  const std::uint64_t delta = process_allocs() - before;

  const double per_task =
      static_cast<double>(delta) /
      (static_cast<double>(tasks_per_round) * kMeasuredRounds);
  std::printf(
      "alloc-check: %llu process-wide allocations over %llu stealing "
      "dispatches => %.5f allocs/task (budget %.5f)\n",
      static_cast<unsigned long long>(delta),
      static_cast<unsigned long long>(tasks_per_round * kMeasuredRounds),
      per_task, budget);
  pool.shutdown();
  if (per_task > budget) {
    std::fprintf(stderr,
                 "alloc-check FAILED: %.5f allocs/task exceeds budget "
                 "%.5f\n",
                 per_task, budget);
    return 1;
  }
  std::printf("alloc-check passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const evmp::common::CliArgs args(argc, argv);
  const int threads = static_cast<int>(args.get_long("threads", 4));
  const int roots = static_cast<int>(args.get_long("roots", 64));
  const int depth = static_cast<int>(args.get_long("depth", 7));
  const int spin_us = static_cast<int>(args.get_long("spin-us", 0));
  const int regions = static_cast<int>(args.get_long("regions", 2000));
  const int width = static_cast<int>(args.get_long("width", 3));
  const std::string budget_path = args.get("alloc-check", "");

  std::printf("ST1: lock-free work stealing (%d threads), "
              "pooled vs fresh fork-join teams (width %d)\n",
              threads, width);

  evmp::common::TextTable table;
  table.set_header(
      {"workload", "variant", "ms", "Mtasks/s", "steals", "local pops"});

  std::uint64_t tasks = 0;
  {
    evmp::exec::WorkStealingExecutor lockfree(
        "st1-lockfree", static_cast<std::size_t>(threads));
    run_tree(lockfree, 8, 4, spin_us, &tasks);  // warm-up
    const double ms = run_tree(lockfree, roots, depth, spin_us, &tasks);
    table.add_row({"spawn-tree " + std::to_string(roots) + " x depth " +
                       std::to_string(depth),
                   "chase-lev", evmp::common::fmt(ms, 1),
                   evmp::common::fmt(static_cast<double>(tasks) / ms / 1e3, 2),
                   std::to_string(lockfree.steals()) + " (" +
                       std::to_string(lockfree.near_steals()) + " near, " +
                       std::to_string(lockfree.far_steals()) + " far)",
                   std::to_string(lockfree.local_pops())});
    lockfree.shutdown();
  }
  {
    run_regions_fresh(64, width);  // warm-up
    const auto helpers_before = evmp::fj::total_helper_threads_created();
    const double ms = run_regions_fresh(regions, width);
    table.add_row({std::to_string(regions) + " parallel regions",
                   "fresh team",
                   evmp::common::fmt(ms, 1),
                   evmp::common::fmt(
                       static_cast<double>(regions) / ms / 1e3, 2),
                   "-",
                   std::to_string(evmp::fj::total_helper_threads_created() -
                                  helpers_before) +
                       " helpers spawned"});
  }
  {
    run_regions_pooled(64, width);  // warm-up (populates the pool)
    const auto helpers_before = evmp::fj::total_helper_threads_created();
    const double ms = run_regions_pooled(regions, width);
    table.add_row({std::to_string(regions) + " parallel regions",
                   "pooled team",
                   evmp::common::fmt(ms, 1),
                   evmp::common::fmt(
                       static_cast<double>(regions) / ms / 1e3, 2),
                   "-",
                   std::to_string(evmp::fj::total_helper_threads_created() -
                                  helpers_before) +
                       " helpers spawned"});
  }
  table.print(std::cout);
  std::printf("\nExpected: pooled regions orders of magnitude more region "
              "throughput than fresh teams, with zero helpers spawned in "
              "steady state.\n");

  if (!budget_path.empty()) {
    const int rc = run_alloc_check(budget_path, threads);
    if (rc != 0) return rc;
    return run_adaptive_lease_alloc_check(budget_path, width);
  }
  return 0;
}
