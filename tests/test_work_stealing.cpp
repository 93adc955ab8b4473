// Tests for the work-stealing executor and its use as a virtual target.

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/sync.hpp"
#include "common/tracing.hpp"
#include "core/runtime.hpp"
#include "core/target.hpp"
#include "executor/work_stealing_executor.hpp"

namespace evmp::exec {

// Holds and releases the injection list's consumer side the way a consumer
// whose pop misses does, so a test can run posts and parks while it is held;
// reads the wake mark and the waiter-set exits, lets the test thread stand
// in for a worker entering and leaving the waiter set, and tells a task
// which worker runs it.
struct WorkStealingTestPeer {
  static int worker_index(const WorkStealingExecutor& pool) {
    return pool.current_worker_index();
  }
  static void hold_injection_flag(WorkStealingExecutor& pool) {
    while (!pool.injected_.try_lock_consumer()) std::this_thread::yield();
  }
  static void release_after_miss(WorkStealingExecutor& pool) {
    pool.injected_.unlock_consumer();
    pool.injection_missed();
  }
  static bool wake_pending(const WorkStealingExecutor& pool) {
    return pool.wake_pending_.load(std::memory_order_acquire);
  }
  static std::uint64_t idle_exits(const WorkStealingExecutor& pool) {
    return pool.stats().idle_exits;
  }
  static bool notify_marked(WorkStealingExecutor& pool) {
    return pool.notify_marked();
  }
  static void enter_idle(WorkStealingExecutor& pool) {
    (void)pool.idle_.prepare_wait();
  }
  static void cancel_idle(WorkStealingExecutor& pool) { pool.cancel_idle(); }
};

namespace {

// One round of tasks that each hold their worker until `need` of them have
// started: the round completes only if the pool puts that many workers on
// the backlog at once. A task gives up after a deadline (and marks the
// round stranded) rather than hang the suite.
struct Rendezvous {
  explicit Rendezvous(int n)
      : need(n), finished(static_cast<std::size_t>(n)) {}

  void arrive() {
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds{5};
    while (started.load() < need) {
      if (std::chrono::steady_clock::now() > deadline) {
        stranded.store(true);
        break;
      }
      std::this_thread::yield();
    }
    finished.count_down();
  }

  const int need;
  std::atomic<int> started{0};
  std::atomic<bool> stranded{false};
  common::CountdownLatch finished;
};

// Yield until pred() holds; false after 5 s.
template <class Pred>
bool yield_until(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{5};
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

constexpr int kRendezvousWorkers = 4;
constexpr int kRendezvousRounds = 50;

// Submit make(id) for ids [first, first + count) in order, as a seeded mix
// of single posts and batches of 1..100.
template <class MakeTask>
void submit_mixed(Executor& pool, int first, int count, std::uint64_t seed,
                  MakeTask make) {
  common::Xoshiro256 rng(seed);
  int id = first;
  const int end = first + count;
  while (id < end) {
    if (rng.next_below(2) == 0) {
      pool.post(make(id++));
      continue;
    }
    const int n = std::min(end - id, 1 + static_cast<int>(rng.next_below(100)));
    std::vector<Task> batch;
    for (int k = 0; k < n; ++k) batch.push_back(make(id++));
    pool.post_batch(batch);
  }
}

// submit_mixed() with each task bumping runs[id].
void inject_ids(Executor& pool, std::vector<std::atomic<int>>& runs,
                int first, int count, std::uint64_t seed) {
  submit_mixed(pool, first, count, seed, [&runs](int id) -> Task {
    return [&runs, id] { runs[static_cast<std::size_t>(id)]++; };
  });
}

// Every id in `runs` ran exactly once.
void expect_each_once(const std::vector<std::atomic<int>>& runs) {
  for (std::size_t id = 0; id < runs.size(); ++id) {
    ASSERT_EQ(runs[id].load(), 1) << "task " << id;
  }
}

// Spin (yielding) until `pool` has executed `n` tasks or 10 s pass.
bool executed_within(const WorkStealingExecutor& pool, std::uint64_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{10};
  while (pool.tasks_executed() < n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(WorkStealing, PostBatchRunsAllTasks) {
  WorkStealingExecutor pool("ws", 3);
  std::atomic<int> count{0};
  common::CountdownLatch latch(100);
  std::vector<Task> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.emplace_back([&] {
      count.fetch_add(1);
      latch.count_down();
    });
  }
  pool.post_batch(tasks);
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{10}));
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.batch_posts(), 1u);
}

TEST(WorkStealing, PostBatchAfterShutdownIsDropped) {
  WorkStealingExecutor pool("ws", 1);
  pool.shutdown();
  std::atomic<bool> ran{false};
  std::vector<Task> tasks;
  tasks.emplace_back([&] { ran.store(true); });
  pool.post_batch(tasks);
  std::this_thread::sleep_for(std::chrono::milliseconds{5});
  EXPECT_FALSE(ran.load());
}

TEST(WorkStealing, RunsAllTasks) {
  WorkStealingExecutor pool("ws", 3);
  std::atomic<int> count{0};
  common::CountdownLatch latch(200);
  for (int i = 0; i < 200; ++i) {
    pool.post([&] {
      count.fetch_add(1);
      latch.count_down();
    });
  }
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{10}));
  EXPECT_EQ(count.load(), 200);
  EXPECT_EQ(pool.concurrency(), 3u);
}

TEST(WorkStealing, MemberThreadsAreOwned) {
  WorkStealingExecutor pool("ws", 2);
  std::atomic<bool> member{false};
  common::CountdownLatch latch(1);
  pool.post([&] {
    member.store(pool.owns_current_thread());
    latch.count_down();
  });
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{5}));
  EXPECT_TRUE(member.load());
  EXPECT_FALSE(pool.owns_current_thread());
}

TEST(WorkStealing, RecursiveSpawnDoesNotDeadlock) {
  // Tasks that spawn subtasks and wait for them via try_run_one (helping):
  // the pattern nested target blocks produce.
  WorkStealingExecutor pool("ws", 2);
  std::atomic<int> leaves{0};
  common::CountdownLatch latch(4);
  for (int i = 0; i < 4; ++i) {
    pool.post([&] {
      CompletionRef state = CompletionState::make();
      pool.post([&, state] {
        leaves.fetch_add(1);
        state->set_done();
      });
      while (!state->done()) {
        if (!pool.try_run_one()) std::this_thread::yield();
      }
      latch.count_down();
    });
  }
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{10}));
  EXPECT_EQ(leaves.load(), 4);
}

TEST(WorkStealing, StealsWhenOneWorkerIsBusy) {
  WorkStealingExecutor pool("ws", 2);
  common::ManualResetEvent release;
  common::CountdownLatch started(1);
  common::CountdownLatch spawned_done(8);
  // Occupy one worker, then have it self-post (LIFO-local) tasks the other
  // worker must steal.
  pool.post([&] {
    started.count_down();
    for (int i = 0; i < 8; ++i) {
      pool.post([&] { spawned_done.count_down(); });
    }
    release.wait();
  });
  ASSERT_TRUE(started.wait_for(std::chrono::seconds{5}));
  ASSERT_TRUE(spawned_done.wait_for(std::chrono::seconds{10}));
  EXPECT_GE(pool.steals(), 1u);
  release.set();
}

TEST(WorkStealing, ForeignTryRunOneHelps) {
  WorkStealingExecutor pool("ws", 1);
  common::ManualResetEvent release;
  common::CountdownLatch started(1);
  pool.post([&] {
    started.count_down();
    release.wait();
  });
  ASSERT_TRUE(started.wait_for(std::chrono::seconds{5}));
  std::atomic<bool> ran{false};
  pool.post([&] { ran.store(true); });
  EXPECT_TRUE(pool.try_run_one());  // foreign thread steals the queued task
  EXPECT_TRUE(ran.load());
  release.set();
}

TEST(WorkStealing, ShutdownDrainsAllQueues) {
  std::atomic<int> count{0};
  {
    WorkStealingExecutor pool("ws", 3);
    for (int i = 0; i < 100; ++i) {
      pool.post([&] { count.fetch_add(1); });
    }
    pool.shutdown();
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(WorkStealing, PostAfterShutdownIsDropped) {
  WorkStealingExecutor pool("ws", 1);
  pool.shutdown();
  std::atomic<bool> ran{false};
  pool.post([&] { ran.store(true); });
  std::this_thread::sleep_for(std::chrono::milliseconds{5});
  EXPECT_FALSE(ran.load());
}

TEST(WorkStealing, WorksAsVirtualTarget) {
  Runtime rt;
  auto& pool = rt.create_stealing_worker("ws-worker", 2);
  std::atomic<bool> on_pool{false};
  rt.target("ws-worker").run([&] { on_pool.store(pool.owns_current_thread()); });
  EXPECT_TRUE(on_pool.load());

  // await on a member thread uses stealing to make progress.
  std::atomic<int> done{0};
  common::CountdownLatch latch(1);
  rt.target("ws-worker").nowait([&] {
    rt.target("ws-worker").await([&] { done.fetch_add(1); });
    done.fetch_add(1);
    latch.count_down();
  });
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{10}));
  EXPECT_EQ(done.load(), 2);
  rt.clear();
}

TEST(WorkStealing, CountersAccount) {
  WorkStealingExecutor pool("ws", 2);
  common::CountdownLatch latch(50);
  for (int i = 0; i < 50; ++i) {
    pool.post([&] { latch.count_down(); });
  }
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{10}));
  pool.shutdown();
  EXPECT_EQ(pool.tasks_executed(), 50u);
  // Foreign posts arrive via the injection queue; worker-local spawn would
  // show up as local pops or steals. Every executed task is attributed to
  // exactly one source.
  EXPECT_EQ(pool.local_pops() + pool.steals() + pool.injection_pops(), 50u);
}

TEST(WorkStealing, WorkerSelfPostsUseOwnDeque) {
  // A task that spawns children from a worker thread must push them to its
  // own Chase–Lev deque (local pops / steals), not the injection queue.
  WorkStealingExecutor pool("ws", 2);
  common::CountdownLatch latch(9);
  pool.post([&] {
    for (int i = 0; i < 8; ++i) {
      pool.post([&] { latch.count_down(); });
    }
    latch.count_down();
  });
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{10}));
  pool.shutdown();
  EXPECT_EQ(pool.tasks_executed(), 9u);
  EXPECT_EQ(pool.injection_pops(), 1u);  // only the foreign seeding post
  EXPECT_EQ(pool.local_pops() + pool.steals(), 8u);
}

TEST(WorkStealing, ForeignBacklogReachesEveryWorker) {
  // Foreign posts while a searcher is live skip their notify; the searcher
  // (and each worker after it) must wake a peer for what it left behind.
  WorkStealingExecutor pool("ws", kRendezvousWorkers);
  for (int round = 0; round < kRendezvousRounds; ++round) {
    auto r = std::make_shared<Rendezvous>(kRendezvousWorkers);
    for (int i = 0; i < kRendezvousWorkers; ++i) {
      pool.post([r] { r->arrive(); });
    }
    ASSERT_TRUE(r->finished.wait_for(std::chrono::seconds{10}))
        << "round " << round;
    ASSERT_FALSE(r->stranded.load()) << "round " << round;
  }
}

TEST(WorkStealing, SelfPostedBacklogReachesEveryWorker) {
  // The same with the backlog in one worker's own deque: thieves that
  // steal from it must keep waking peers while it stays non-empty.
  WorkStealingExecutor pool("ws", kRendezvousWorkers);
  for (int round = 0; round < kRendezvousRounds; ++round) {
    auto r = std::make_shared<Rendezvous>(kRendezvousWorkers);
    pool.post([&pool, r] {
      for (int i = 1; i < kRendezvousWorkers; ++i) {
        pool.post([r] { r->arrive(); });
      }
      r->arrive();
    });
    ASSERT_TRUE(r->finished.wait_for(std::chrono::seconds{10}))
        << "round " << round;
    ASSERT_FALSE(r->stranded.load()) << "round " << round;
  }
}

TEST(WorkStealing, PostNeverStrandedWhileSearcherGivesUp) {
  // Single posts with seeded pauses between them land at every point of a
  // searcher's ladder, including its exit to the park: a post that skips
  // its notify because a searcher is live must still be run.
  WorkStealingExecutor pool("ws", 3);
  common::Xoshiro256 rng(0x5ea4c4);
  for (int round = 0; round < 20000; ++round) {
    auto done = std::make_shared<common::CountdownLatch>(1);
    pool.post([done] { done->count_down(); });
    ASSERT_TRUE(done->wait_for(std::chrono::seconds{2})) << "round " << round;
    for (auto k = rng.next_below(64); k > 0; --k) std::this_thread::yield();
  }
}

TEST(WorkStealing, ConsumerTurnedAwayByHeldFlagIsWoken) {
  // A consumer that finds the injection flag held reads "nothing here" and
  // may park on that answer. Here the test is the holder, a consumer whose
  // pop hit a producer's link window: it posts, lets the woken worker
  // search, get turned away and park, then releases the flag the way a
  // missed pop does. The post must still run.
  WorkStealingExecutor pool("ws", 3);
  for (int round = 0; round < 20; ++round) {
    auto done = std::make_shared<common::CountdownLatch>(1);
    WorkStealingTestPeer::hold_injection_flag(pool);
    pool.post([done] { done->count_down(); });
    ASSERT_FALSE(done->wait_for(std::chrono::milliseconds{20}));
    WorkStealingTestPeer::release_after_miss(pool);
    ASSERT_TRUE(done->wait_for(std::chrono::seconds{2})) << "round " << round;
  }
}

TEST(WorkStealing, AtMostOneWakeInFlight) {
  // Foreign 64-post bursts: each notify that reaches a counted waiter sets
  // the wake mark, and only a worker leaving the waiter set (or a notify
  // that reached nobody) clears it. So the wakes issued never exceed the
  // waiter-set exits by more than the one wake still in flight. Without
  // the mark every post re-wakes the already-woken, still-counted worker.
  // A pause before each burst lets the workers park, so each burst starts
  // from parked workers.
  constexpr int kBursts = 500;
  constexpr int kPerBurst = 64;
  WorkStealingExecutor pool("ws", 3);
  for (int burst = 0; burst < kBursts; ++burst) {
    std::this_thread::sleep_for(std::chrono::microseconds{200});
    auto done = std::make_shared<common::CountdownLatch>(kPerBurst);
    for (int i = 0; i < kPerBurst; ++i) {
      pool.post([done] { done->count_down(); });
    }
    ASSERT_TRUE(done->wait_for(std::chrono::seconds{10})) << "burst " << burst;
    const std::uint64_t wakes = pool.wakes();
    ASSERT_LE(wakes, WorkStealingTestPeer::idle_exits(pool) + 1)
        << "burst " << burst;
  }
  RecordProperty("wakes", static_cast<int>(pool.wakes()));
  RecordProperty("idle_exits",
                 static_cast<int>(WorkStealingTestPeer::idle_exits(pool)));
  pool.shutdown();
  EXPECT_EQ(pool.tasks_executed(),
            static_cast<std::uint64_t>(kBursts) * kPerBurst);
}

TEST(WorkStealing, WakeMarkClearedWhenNoWaiterIsReached) {
  // With both workers held in tasks nobody waits: the notify reaches no
  // waiter, so no worker will ever clear the mark and the waker must.
  // Then the test itself stands in for a worker: a notify counts it and
  // leaves the mark set, and its cancel clears it.
  WorkStealingExecutor pool("ws", 2);
  common::ManualResetEvent release;
  common::CountdownLatch started(2);
  for (int i = 0; i < 2; ++i) {
    pool.post([&] {
      started.count_down();
      release.wait();
    });
  }
  ASSERT_TRUE(started.wait_for(std::chrono::seconds{5}));
  const std::uint64_t wakes = pool.wakes();
  EXPECT_FALSE(WorkStealingTestPeer::notify_marked(pool));
  EXPECT_FALSE(WorkStealingTestPeer::wake_pending(pool));
  EXPECT_EQ(pool.wakes(), wakes);

  WorkStealingTestPeer::enter_idle(pool);
  EXPECT_TRUE(WorkStealingTestPeer::notify_marked(pool));
  EXPECT_TRUE(WorkStealingTestPeer::wake_pending(pool));
  EXPECT_EQ(pool.wakes(), wakes + 1);
  WorkStealingTestPeer::cancel_idle(pool);
  EXPECT_FALSE(WorkStealingTestPeer::wake_pending(pool));
  release.set();
}

TEST(WorkStealing, WakeHeldBackByMarkIsSpread) {
  // Both workers parked: the blocker's post wakes one and sets the mark,
  // so the quick task's post skips its notify. The woken worker takes the
  // blocker (FIFO) and its spread must wake the other for the quick task,
  // which then runs long before the blocker's 50 ms are up. Without the
  // spread it never does; a loaded host may delay an odd round.
  constexpr int kRounds = 20;
  WorkStealingExecutor pool("ws", 2);
  int quick_rounds = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    auto blocker = std::make_shared<common::CountdownLatch>(1);
    auto quick = std::make_shared<common::CountdownLatch>(1);
    pool.post([blocker] {
      std::this_thread::sleep_for(std::chrono::milliseconds{50});
      blocker->count_down();
    });
    pool.post([quick] { quick->count_down(); });
    if (quick->wait_for(std::chrono::milliseconds{25})) ++quick_rounds;
    ASSERT_TRUE(blocker->wait_for(std::chrono::seconds{5}))
        << "round " << round;
    ASSERT_TRUE(quick->wait_for(std::chrono::seconds{5})) << "round " << round;
  }
  RecordProperty("quick_rounds", quick_rounds);
  EXPECT_GE(quick_rounds, kRounds - 3);
}

TEST(WorkStealing, PostThenWaitNeverStrandedByWakeMark) {
  // One or two posts per round, then wait, with seeded pauses (sometimes
  // long enough for every worker to park) so the posts land before, inside
  // and after a woken worker's exit from the waiter set. A mark left set
  // with every worker parked would strand the next post. One worker makes
  // a post that lands in its park re-check likely: the notify counts only
  // that worker, which cancels instead of sleeping.
  for (const std::size_t workers : {1, 3}) {
    WorkStealingExecutor pool("ws", workers);
    common::Xoshiro256 rng(0x3a4e21 + workers);
    for (int round = 0; round < 20000; ++round) {
      const int posts = 1 + static_cast<int>(rng.next_below(2));
      auto done = std::make_shared<common::CountdownLatch>(posts);
      for (int i = 0; i < posts; ++i) {
        pool.post([done] { done->count_down(); });
      }
      ASSERT_TRUE(done->wait_for(std::chrono::seconds{5}))
          << workers << " workers, round " << round;
      if (rng.next_below(8) == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds{50});
      } else {
        for (auto k = rng.next_below(64); k > 0; --k) std::this_thread::yield();
      }
    }
  }
}

TEST(WorkStealing, InjectionRunsEveryTaskExactlyOnce) {
  // Four foreign producers mixing posts and batches into one injection
  // list: no node is lost or popped twice, and the count drains to zero.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  constexpr int kTotal = kProducers * kPerProducer;
  WorkStealingExecutor pool("ws", 3);
  std::vector<std::atomic<int>> runs(kTotal);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      inject_ids(pool, runs, p * kPerProducer, kPerProducer, 0x1a7 + p);
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(executed_within(pool, kTotal));
  EXPECT_EQ(pool.pending(), 0u);
  pool.shutdown();
  expect_each_once(runs);
  EXPECT_EQ(pool.tasks_executed(), static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(pool.injection_pops(), static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(WorkStealing, InjectionIsFifoPerProducer) {
  // One foreign producer, one worker: interleaved posts and batches run in
  // submission order.
  constexpr int kTasks = 3000;
  WorkStealingExecutor pool("ws", 1);
  std::vector<int> order;
  order.reserve(kTasks);
  submit_mixed(pool, 0, kTasks, 0xf1f0, [&order](int id) -> Task {
    return [&order, id] { order.push_back(id); };
  });
  ASSERT_TRUE(executed_within(pool, kTasks));
  pool.shutdown();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i) << "position " << i;
  }
}

TEST(WorkStealing, ForeignHelpersRacingWorkersLoseNothing) {
  // Foreign try_run_one helpers contend with the workers for the injection
  // consumer flag; a worker that loses the flag and parks must still see
  // the backlog run, and no task may run twice. The helpers stop with the
  // producers, so whatever they leave behind is the workers' to finish.
  constexpr int kProducers = 2;
  constexpr int kPerProducer = 5000;
  constexpr int kTotal = kProducers * kPerProducer;
  constexpr int kHelpers = 2;
  WorkStealingExecutor pool("ws", 3);
  std::vector<std::atomic<int>> runs(kTotal);
  std::atomic<bool> producing{true};
  std::atomic<std::uint64_t> helped{0};
  std::vector<std::thread> helpers;
  for (int h = 0; h < kHelpers; ++h) {
    helpers.emplace_back([&] {
      while (producing.load()) {
        if (pool.try_run_one()) {
          helped.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      inject_ids(pool, runs, p * kPerProducer, kPerProducer, 0x4e1b + p);
    });
  }
  for (auto& t : producers) t.join();
  producing.store(false);
  for (auto& t : helpers) t.join();
  ASSERT_TRUE(executed_within(pool, kTotal));
  pool.shutdown();
  expect_each_once(runs);
  EXPECT_EQ(pool.tasks_executed(), static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(pool.injection_pops(), static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(pool.pending(), 0u);
  RecordProperty("helped", static_cast<int>(helped.load()));
}

TEST(WorkStealing, ExactlyOnceWithMoreWorkersThanCpus) {
  // More workers than this host has CPUs, so thieves are preempted mid-scan
  // and mid-CAS: each foreign task spawns a child onto its worker's deque,
  // and every task must still run once, attributed to exactly one source.
  constexpr int kPosts = 20'000;
  constexpr int kTasks = 2 * kPosts;
  std::vector<std::atomic<int>> runs(kTasks);
  WorkStealingExecutor pool("ws", 6);
  for (int i = 0; i < kPosts; ++i) {
    pool.post([&pool, &runs, i] {
      runs[static_cast<std::size_t>(i)]++;
      pool.post([&runs, i] { runs[static_cast<std::size_t>(kPosts + i)]++; });
    });
  }
  ASSERT_TRUE(executed_within(pool, kTasks));
  pool.shutdown();
  expect_each_once(runs);
  EXPECT_EQ(pool.injection_pops(), static_cast<std::uint64_t>(kPosts));
  EXPECT_EQ(pool.local_pops() + pool.steals() + pool.injection_pops(),
            static_cast<std::uint64_t>(kTasks));
}

TEST(WorkStealing, StealReachesEveryPeer) {
  // Worker v pushes one child onto its own deque and blocks until it has
  // run, so only a peer's steal can run it. One round per v: the round's
  // tasks rendezvous first, so each sits on its own worker.
  constexpr int kWorkers = 4;
  struct Round {
    Rendezvous all{kWorkers};
    common::CountdownLatch child_ran{1};
    common::CountdownLatch done{kWorkers};
    std::atomic<bool> timed_out{false};
  };
  WorkStealingExecutor pool("ws", kWorkers);
  for (int v = 0; v < kWorkers; ++v) {
    auto r = std::make_shared<Round>();
    const std::uint64_t steals_before = pool.steals();
    for (int i = 0; i < kWorkers; ++i) {
      pool.post([&pool, r, v] {
        r->all.arrive();
        if (WorkStealingTestPeer::worker_index(pool) == v) {
          pool.post([r] { r->child_ran.count_down(); });
          if (!r->child_ran.wait_for(std::chrono::seconds{5})) {
            r->timed_out.store(true);
          }
        }
        r->done.count_down();
      });
    }
    ASSERT_TRUE(r->done.wait_for(std::chrono::seconds{15})) << "worker " << v;
    ASSERT_FALSE(r->all.stranded.load()) << "worker " << v;
    EXPECT_FALSE(r->timed_out.load()) << "no peer stole from worker " << v;
    EXPECT_GT(pool.steals(), steals_before) << "worker " << v;
  }
}

TEST(WorkStealing, ForeignHelperReachesEveryPeerFromEveryStart) {
  // The foreign thief's start moves by one per scan. With every worker held
  // and exactly one child queued, on worker v, each of n successive
  // try_run_one calls (n starts in a row) must find it: no start may leave
  // a peer out.
  constexpr int kWorkers = 4;
  constexpr int kTurns = kWorkers * kWorkers;
  auto all = std::make_shared<Rendezvous>(kWorkers);
  // Turn t: phase 2t asks worker t / n for a child, 2t + 1 says it is
  // queued; 2 * kTurns releases the workers.
  std::atomic<int> phase{0};
  std::atomic<int> children_run{0};
  common::CountdownLatch done(kWorkers);
  WorkStealingExecutor pool("ws", kWorkers);  // joined before the above die
  for (int i = 0; i < kWorkers; ++i) {
    pool.post([&, all] {
      all->arrive();
      const int self = WorkStealingTestPeer::worker_index(pool);
      for (int t = self * kWorkers; t < (self + 1) * kWorkers; ++t) {
        if (!yield_until([&] { return phase.load() == 2 * t; })) break;
        pool.post([&] { children_run.fetch_add(1); });
        phase.store(2 * t + 1);
      }
      yield_until([&] { return phase.load() == 2 * kTurns; });
      done.count_down();
    });
  }
  for (int t = 0; t < kTurns; ++t) {
    ASSERT_TRUE(yield_until([&] { return phase.load() == 2 * t + 1; }))
        << "turn " << t;
    EXPECT_TRUE(pool.try_run_one())
        << "turn " << t << ": child on worker " << t / kWorkers << " missed";
    phase.store(2 * t + 2);
  }
  ASSERT_TRUE(done.wait_for(std::chrono::seconds{10}));
  ASSERT_FALSE(all->stranded.load());
  pool.shutdown();
  EXPECT_EQ(children_run.load(), kTurns);
}

TEST(WorkStealing, PinsToAffinityMaskWithoutConstructorFlag) {
  // EVMP_PIN=1 pins worker i to the (i mod count)-th CPU of the process's
  // affinity set; pinning is advisory, so a refused pin only lowers the
  // count. The caller's EVMP_PIN is restored for the rest of the suite.
  const char* old = std::getenv("EVMP_PIN");
  const std::optional<std::string> saved =
      old ? std::optional<std::string>(old) : std::nullopt;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  std::vector<int> allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) allowed.push_back(cpu);
  }
  constexpr int kTasks = 100;
  std::vector<std::pair<int, int>> ran_on(kTasks);  // (worker, cpu)
  setenv("EVMP_PIN", "1", 1);
  WorkStealingExecutor pool("ws", 2);
  common::CountdownLatch latch(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    pool.post([&, i] {
      ran_on[static_cast<std::size_t>(i)] = {
          WorkStealingTestPeer::worker_index(pool), sched_getcpu()};
      latch.count_down();
    });
  }
  const bool all_ran = latch.wait_for(std::chrono::seconds{10});
  pool.shutdown();  // joins: pinned_workers() is final
  if (saved) {
    setenv("EVMP_PIN", saved->c_str(), 1);
  } else {
    unsetenv("EVMP_PIN");
  }
  ASSERT_TRUE(all_ran);
  EXPECT_LE(pool.pinned_workers(), 2u);
  if (pool.pinned_workers() < 2) return;
  for (const auto& [worker, cpu] : ran_on) {
    ASSERT_GE(worker, 0);
    EXPECT_EQ(cpu, allowed[static_cast<std::size_t>(worker) % allowed.size()])
        << "worker " << worker;
  }
}

TEST(WorkStealing, ShutdownPublishesCounters) {
  // Every published row must read what the accessors read after the join.
  // Foreign posts and a batch feed the injection list; each task spawns a
  // child onto its worker's deque, for local pops and steals.
  WorkStealingExecutor pool("publish_ws", 3);
  constexpr int kPosts = 40;
  common::CountdownLatch latch(2 * (kPosts + 8));
  auto spawn = [&] {
    pool.post([&] { latch.count_down(); });
    latch.count_down();
  };
  for (int i = 0; i < kPosts; ++i) pool.post(spawn);
  std::vector<Task> batch;
  for (int i = 0; i < 8; ++i) batch.emplace_back(spawn);
  pool.post_batch(batch);
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{10}));
  pool.shutdown();
  EXPECT_EQ(pool.batch_posts(), 1u);
  EXPECT_EQ(pool.local_pops() + pool.steals() + pool.injection_pops(),
            static_cast<std::uint64_t>(2 * (kPosts + 8)));
  const auto rows = common::Tracer::instance().counters();
  const std::pair<const char*, std::uint64_t> expected[] = {
      {"publish_ws.local_pops", pool.local_pops()},
      {"publish_ws.steals", pool.steals()},
      {"publish_ws.injection_pops", pool.injection_pops()},
      {"publish_ws.wakes", pool.wakes()},
      {"publish_ws.batch_posts", pool.batch_posts()},
  };
  for (const auto& [name, value] : expected) {
    const auto it = rows.find(name);
    ASSERT_NE(it, rows.end()) << name;
    EXPECT_EQ(it->second, value) << name;
  }
  // Published only while pinning in some versions; when present it must
  // match the accessor.
  const auto pinned = rows.find("publish_ws.pinned_workers");
  if (pinned != rows.end()) {
    EXPECT_EQ(pinned->second, pool.pinned_workers());
  }
}

}  // namespace
}  // namespace evmp::exec
