// AB2 — ablation: central-queue worker pool (the paper's executor model)
// vs the lock-free work-stealing pool, as the backing of a worker virtual
// target (see also bench_steal_throughput for the executor-level
// microbenchmark).
//
// Two workloads:
//  * fan-out: many independent fine-grained nowait blocks from one
//    producer (the GUI/event pattern);
//  * spawn-tree: blocks recursively spawning sub-blocks and awaiting them
//    (nested target blocks), where helping/stealing matters.

#include <atomic>
#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/clock.hpp"
#include "common/sync.hpp"
#include "common/table.hpp"
#include "core/runtime.hpp"
#include "core/target.hpp"

namespace {

using evmp::Runtime;

double run_fanout(Runtime& rt, const char* target, int tasks, int spin_us) {
  evmp::common::CountdownLatch latch(static_cast<std::size_t>(tasks));
  const evmp::common::Stopwatch sw;
  for (int i = 0; i < tasks; ++i) {
    rt.target(target).nowait([&latch, spin_us] {
      evmp::common::busy_spin(evmp::common::Micros{spin_us});
      latch.count_down();
    });
  }
  latch.wait();
  return sw.elapsed_ms();
}

double run_spawn_tree(Runtime& rt, const std::string& target, int roots,
                      int depth, int spin_us) {
  evmp::common::CountdownLatch latch(static_cast<std::size_t>(roots));
  const evmp::common::Stopwatch sw;
  // Each root awaits a chain of nested blocks of the given depth.
  std::function<void(int)> spawn = [&](int remaining) {
    evmp::common::busy_spin(evmp::common::Micros{spin_us});
    if (remaining > 0) {
      rt.target(std::string(target)).await([&, remaining] {
        spawn(remaining - 1);
      });
    }
  };
  for (int r = 0; r < roots; ++r) {
    rt.target(std::string(target)).nowait([&, depth] {
      spawn(depth);
      latch.count_down();
    });
  }
  latch.wait();
  return sw.elapsed_ms();
}

}  // namespace

int main(int argc, char** argv) {
  const evmp::common::CliArgs args(argc, argv);
  const int threads = static_cast<int>(args.get_long("threads", 4));
  const int tasks = static_cast<int>(args.get_long("tasks", 2000));
  const int spin_us = static_cast<int>(args.get_long("spin-us", 20));
  const int roots = static_cast<int>(args.get_long("roots", 64));
  const int depth = static_cast<int>(args.get_long("depth", 6));

  Runtime rt;
  rt.create_worker("central", threads);
  auto& stealing = rt.create_stealing_worker("stealing", threads);

  std::printf("AB2: central queue vs lock-free stealing as the worker "
              "target (%d threads)\n", threads);

  evmp::common::TextTable table;
  table.set_header({"workload", "central queue(ms)", "chase-lev(ms)",
                    "steals", "local pops"});

  // Warm up both pools.
  run_fanout(rt, "central", 64, 1);
  run_fanout(rt, "stealing", 64, 1);

  {
    const double central = run_fanout(rt, "central", tasks, spin_us);
    const auto steals_before = stealing.steals();
    const double steal = run_fanout(rt, "stealing", tasks, spin_us);
    table.add_row({"fan-out " + std::to_string(tasks) + " x " +
                       std::to_string(spin_us) + "us",
                   evmp::common::fmt(central, 1),
                   evmp::common::fmt(steal, 1),
                   std::to_string(stealing.steals() - steals_before),
                   std::to_string(stealing.local_pops())});
  }
  {
    const double central = run_spawn_tree(rt, "central", roots, depth, spin_us);
    const auto steals_before = stealing.steals();
    const double steal =
        run_spawn_tree(rt, "stealing", roots, depth, spin_us);
    table.add_row({"spawn-tree " + std::to_string(roots) + " x depth " +
                       std::to_string(depth),
                   evmp::common::fmt(central, 1),
                   evmp::common::fmt(steal, 1),
                   std::to_string(stealing.steals() - steals_before),
                   std::to_string(stealing.local_pops())});
  }
  table.print(std::cout);
  std::printf("\nExpected on multi-core hosts: comparable on coarse "
              "fan-out; stealing ahead on the spawn-tree (nested blocks pop "
              "locally, idle workers steal whole subtrees; the central "
              "queue serialises every hop). On a single-CPU container both "
              "are time-slice bound and land together — the structural "
              "difference shows in the counters.\n");
  rt.clear();
  return 0;
}
