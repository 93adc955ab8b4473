// Unit tests for the executor substrate: UniqueFunction, CompletionState /
// TaskHandle, ThreadPoolExecutor (including the one-thread serial case)
// and the simulated accelerator device.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/sync.hpp"
#include "common/tracing.hpp"
#include "executor/completion.hpp"
#include "executor/executor.hpp"
#include "executor/simulated_device.hpp"
#include "executor/thread_pool_executor.hpp"
#include "executor/unique_function.hpp"

namespace evmp::exec {
namespace {

TEST(UniqueFunction, EmptyIsFalse) {
  UniqueFunction<void()> f;
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(UniqueFunction, InvokesAndReturns) {
  UniqueFunction<int(int)> f = [](int x) { return x * 2; };
  EXPECT_EQ(f(21), 42);
}

TEST(UniqueFunction, HoldsMoveOnlyCapture) {
  auto p = std::make_unique<int>(9);
  UniqueFunction<int()> f = [p = std::move(p)] { return *p; };
  EXPECT_EQ(f(), 9);
}

TEST(UniqueFunction, MoveTransfersOwnership) {
  UniqueFunction<int()> f = [] { return 1; };
  UniqueFunction<int()> g = std::move(f);
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(g));
  EXPECT_EQ(g(), 1);
}

// --- small-buffer optimization boundary ---------------------------------

template <std::size_t N>
struct SizedCallable {
  unsigned char payload[N];
  explicit SizedCallable(unsigned char fill) { payload[0] = fill; }
  int operator()() const { return payload[0]; }
};

TEST(UniqueFunction, CallableAtCapacityStaysInline) {
  constexpr auto kCap = UniqueFunction<int()>::kInlineCapacity;
  UniqueFunction<int()> f = SizedCallable<kCap>(7);
  EXPECT_TRUE(f.is_inline());
  EXPECT_EQ(f(), 7);
}

TEST(UniqueFunction, CallableOverCapacityGoesToHeap) {
  constexpr auto kCap = UniqueFunction<int()>::kInlineCapacity;
  UniqueFunction<int()> f = SizedCallable<kCap + 1>(9);
  EXPECT_FALSE(f.is_inline());
  EXPECT_EQ(f(), 9);
}

TEST(UniqueFunction, ThrowingMoveFallsBackToHeap) {
  struct ThrowingMove {
    ThrowingMove() = default;
    ThrowingMove(ThrowingMove&&) noexcept(false) {}
    int operator()() const { return 3; }
  };
  UniqueFunction<int()> f = ThrowingMove{};
  EXPECT_FALSE(f.is_inline());  // SBO relocation must be noexcept
  EXPECT_EQ(f(), 3);
}

TEST(UniqueFunction, InlineMovePreservesCallableState) {
  // Straddle the boundary from both sides and move repeatedly: the inline
  // copy must relocate the payload, the heap copy only its pointer.
  constexpr auto kCap = UniqueFunction<int()>::kInlineCapacity;
  UniqueFunction<int()> small = SizedCallable<kCap - 8>(21);
  UniqueFunction<int()> big = SizedCallable<kCap + 8>(42);
  for (int i = 0; i < 4; ++i) {
    UniqueFunction<int()> s2 = std::move(small);
    small = std::move(s2);
    UniqueFunction<int()> b2 = std::move(big);
    big = std::move(b2);
  }
  EXPECT_TRUE(small.is_inline());
  EXPECT_FALSE(big.is_inline());
  EXPECT_EQ(small(), 21);
  EXPECT_EQ(big(), 42);
}

TEST(UniqueFunction, DestroysInlineCaptureExactlyOnce) {
  struct Counter {
    int* live;
    explicit Counter(int* p) : live(p) { ++*live; }
    Counter(const Counter& o) : live(o.live) { ++*live; }
    Counter(Counter&& o) noexcept : live(o.live) { ++*live; }
    ~Counter() { --*live; }
    void operator()() const {}
  };
  int live = 0;
  {
    UniqueFunction<void()> f = Counter(&live);
    ASSERT_TRUE(f.is_inline());
    EXPECT_GE(live, 1);
    UniqueFunction<void()> g = std::move(f);
    g();
  }
  EXPECT_EQ(live, 0);
}

TEST(CompletionState, WaitAfterDoneReturnsImmediately) {
  CompletionState s;
  s.set_done();
  s.wait();
  EXPECT_TRUE(s.done());
  EXPECT_FALSE(s.failed());
}

TEST(CompletionState, WaitForTimesOutWhenPending) {
  CompletionState s;
  EXPECT_FALSE(s.wait_for(std::chrono::milliseconds{2}));
}

TEST(CompletionState, ExceptionRethrownAtWait) {
  CompletionState s;
  s.set_exception(std::make_exception_ptr(std::runtime_error("boom")));
  EXPECT_TRUE(s.failed());
  EXPECT_THROW(s.wait(), std::runtime_error);
  // Every join observes the same exception.
  EXPECT_THROW(s.rethrow_if_error(), std::runtime_error);
}

TEST(TaskHandle, EmptyHandleIsDone) {
  TaskHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_TRUE(h.done());
  h.wait();  // no-op
  EXPECT_TRUE(h.wait_for(std::chrono::milliseconds{1}));
}

TEST(TaskHandle, CrossThreadWait) {
  CompletionRef state = CompletionState::make();
  TaskHandle h(state);
  EXPECT_FALSE(h.done());
  std::jthread t([state] {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    state->set_done();
  });
  h.wait();
  EXPECT_TRUE(h.done());
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPoolExecutor pool("p", 3);
  std::atomic<int> count{0};
  common::CountdownLatch latch(100);
  for (int i = 0; i < 100; ++i) {
    pool.post([&] {
      count.fetch_add(1);
      latch.count_down();
    });
  }
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{10}));
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.concurrency(), 3u);
}

TEST(ThreadPool, TasksExecuteOnMemberThreads) {
  ThreadPoolExecutor pool("p", 2);
  std::atomic<bool> member{false};
  common::CountdownLatch latch(1);
  pool.post([&] {
    member.store(pool.owns_current_thread());
    latch.count_down();
  });
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{5}));
  EXPECT_TRUE(member.load());
  EXPECT_FALSE(pool.owns_current_thread());  // the test thread is foreign
}

TEST(ThreadPool, CurrentExecutorIsSetInsideTasks) {
  ThreadPoolExecutor pool("p", 1);
  Executor* observed = nullptr;
  common::CountdownLatch latch(1);
  pool.post([&] {
    observed = Executor::current();
    latch.count_down();
  });
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{5}));
  EXPECT_EQ(observed, &pool);
  EXPECT_EQ(Executor::current(), nullptr);
}

TEST(ThreadPool, TryRunOneExecutesOnCaller) {
  ThreadPoolExecutor pool("p", 1);
  // Occupy the single worker so the queue backs up.
  common::ManualResetEvent release;
  common::CountdownLatch started(1);
  pool.post([&] {
    started.count_down();
    release.wait();
  });
  ASSERT_TRUE(started.wait_for(std::chrono::seconds{5}));
  std::atomic<bool> ran_on_caller{false};
  const auto caller_id = std::this_thread::get_id();
  pool.post([&] { ran_on_caller.store(std::this_thread::get_id() == caller_id); });
  EXPECT_TRUE(pool.try_run_one());  // steals the queued task
  EXPECT_TRUE(ran_on_caller.load());
  EXPECT_FALSE(pool.try_run_one());  // queue empty now
  release.set();
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPoolExecutor pool("p", 2);
    for (int i = 0; i < 50; ++i) {
      pool.post([&] { count.fetch_add(1); });
    }
    pool.shutdown();
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, PostAfterShutdownIsDropped) {
  ThreadPoolExecutor pool("p", 1);
  pool.shutdown();
  std::atomic<bool> ran{false};
  pool.post([&] { ran.store(true); });
  std::this_thread::sleep_for(std::chrono::milliseconds{5});
  EXPECT_FALSE(ran.load());
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPoolExecutor pool("p", 0);
  EXPECT_EQ(pool.concurrency(), 1u);
}

TEST(ThreadPool, TasksExecutedCounter) {
  ThreadPoolExecutor pool("p", 2);
  common::CountdownLatch latch(10);
  for (int i = 0; i < 10; ++i) {
    pool.post([&] { latch.count_down(); });
  }
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{5}));
  pool.shutdown();
  EXPECT_EQ(pool.tasks_executed(), 10u);
}

TEST(ThreadPool, PostBatchRunsAllTasks) {
  ThreadPoolExecutor pool("p", 3);
  std::atomic<int> count{0};
  common::CountdownLatch latch(64);
  std::vector<Task> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.emplace_back([&] {
      count.fetch_add(1);
      latch.count_down();
    });
  }
  pool.post_batch(tasks);
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{10}));
  EXPECT_EQ(count.load(), 64);
  const auto s = pool.queue_stats();
  EXPECT_EQ(s.batch_pushes, 1u);
  EXPECT_EQ(s.batch_items, 64u);
}

TEST(ThreadPool, PostBatchEquivalentToIndividualPosts) {
  // Same observable effect as N posts from one producer: every task runs,
  // in submission order on a single-thread pool.
  ThreadPoolExecutor pool("p", 1);
  std::vector<int> order;
  common::CountdownLatch latch(20);
  std::vector<Task> tasks;
  for (int i = 0; i < 20; ++i) {
    tasks.emplace_back([&, i] {
      order.push_back(i);  // single worker: no race
      latch.count_down();
    });
  }
  pool.post_batch(tasks);
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{5}));
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  pool.shutdown();  // counter increments after the task body returns
  EXPECT_EQ(pool.tasks_executed(), 20u);
}

TEST(ThreadPool, PostBatchAfterShutdownIsDropped) {
  ThreadPoolExecutor pool("p", 1);
  pool.shutdown();
  std::atomic<bool> ran{false};
  std::vector<Task> tasks;
  tasks.emplace_back([&] { ran.store(true); });
  pool.post_batch(tasks);
  std::this_thread::sleep_for(std::chrono::milliseconds{5});
  EXPECT_FALSE(ran.load());
}

TEST(ThreadPool, ShutdownDrainsBatchedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPoolExecutor pool("p", 2);
    std::vector<Task> tasks;
    for (int i = 0; i < 50; ++i) {
      tasks.emplace_back([&] { count.fetch_add(1); });
    }
    pool.post_batch(tasks);
    pool.shutdown();
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ManyProducersSpreadOverShards) {
  ThreadPoolExecutor pool("p", 4);
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 200;
  common::CountdownLatch latch(kProducers * kPerProducer);
  {
    std::vector<std::jthread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < kPerProducer; ++i) {
          pool.post([&] { latch.count_down(); });
        }
      });
    }
  }
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{30}));
  pool.shutdown();
  EXPECT_EQ(pool.tasks_executed(),
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
}

TEST(UnhandledHook, ReceivesFireAndForgetExceptions) {
  static std::atomic<int> hook_hits{0};
  hook_hits.store(0);  // static: a repeated run starts from zero again
  auto prev = unhandled_exception_hook();
  set_unhandled_exception_hook(
      [](std::string_view, std::exception_ptr) { hook_hits.fetch_add(1); });
  {
    ThreadPoolExecutor pool("p", 1);
    pool.post([] { throw std::runtime_error("unhandled"); });
    pool.shutdown();
  }
  set_unhandled_exception_hook(prev);
  EXPECT_EQ(hook_hits.load(), 1);
}

// A one-thread pool is the serial executor: one shard, one thread, strict
// submission order.
TEST(ThreadPoolExecutor, OneThreadIsStrictFifo) {
  ThreadPoolExecutor ex("s", 1);
  std::vector<int> order;
  common::CountdownLatch latch(20);
  for (int i = 0; i < 20; ++i) {
    ex.post([&, i] {
      order.push_back(i);  // single thread: no race
      latch.count_down();
    });
  }
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{5}));
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(ThreadPoolExecutor, OneThreadServesEverything) {
  ThreadPoolExecutor ex("s", 1);
  std::set<std::thread::id> ids;
  std::mutex mu;
  common::CountdownLatch latch(10);
  for (int i = 0; i < 10; ++i) {
    ex.post([&] {
      {
        std::scoped_lock lk(mu);
        ids.insert(std::this_thread::get_id());
      }
      latch.count_down();
    });
  }
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{5}));
  EXPECT_EQ(ids.size(), 1u);
  EXPECT_EQ(ex.concurrency(), 1u);
}

TEST(SimulatedDevice, CountsTransfersAndLaunches) {
  SimulatedDeviceExecutor::Config cfg;
  cfg.launch_latency = common::Micros{100};
  cfg.bandwidth_bytes_per_sec = 1e9;
  SimulatedDeviceExecutor dev("device:0", 0, cfg);
  EXPECT_EQ(dev.device_id(), 0);
  dev.transfer_to_device(1'000'000);
  dev.transfer_from_device(500);
  common::CountdownLatch latch(2);
  dev.post([&] { latch.count_down(); });
  dev.post([&] { latch.count_down(); });
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{5}));
  EXPECT_EQ(dev.bytes_to_device(), 1'000'000u);
  EXPECT_EQ(dev.bytes_from_device(), 500u);
  EXPECT_EQ(dev.kernels_launched(), 2u);
}

TEST(SimulatedDevice, TransferTakesModeledTime) {
  SimulatedDeviceExecutor::Config cfg;
  cfg.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s: 10KB == 10ms
  SimulatedDeviceExecutor dev("device:1", 1, cfg);
  const common::Stopwatch sw;
  dev.transfer_to_device(10'000);
  EXPECT_GE(sw.elapsed_ms(), 8.0);
}

TEST(ThreadPool, ShutdownPublishesQueueCounters) {
  // Every published row must read what queue_stats() reads after the join.
  ThreadPoolExecutor pool("publish_pool", 2);
  common::CountdownLatch latch(10 + 16);
  for (int i = 0; i < 10; ++i) pool.post([&] { latch.count_down(); });
  std::vector<Task> tasks;
  for (int i = 0; i < 16; ++i) tasks.emplace_back([&] { latch.count_down(); });
  pool.post_batch(tasks);
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{10}));
  pool.shutdown();
  const auto s = pool.queue_stats();
  EXPECT_EQ(s.pushes, 10u);
  EXPECT_EQ(s.batch_pushes, 1u);
  EXPECT_EQ(s.batch_items, 16u);
  const auto rows = common::Tracer::instance().counters();
  const std::pair<const char*, std::uint64_t> expected[] = {
      {"publish_pool.posts", s.pushes},
      {"publish_pool.batch_posts", s.batch_pushes},
      {"publish_pool.batch_items", s.batch_items},
      {"publish_pool.collisions", s.collisions},
      {"publish_pool.max_depth", s.max_depth},
  };
  for (const auto& [name, value] : expected) {
    const auto it = rows.find(name);
    ASSERT_NE(it, rows.end()) << name;
    EXPECT_EQ(it->second, value) << name;
  }
}

}  // namespace
}  // namespace evmp::exec
