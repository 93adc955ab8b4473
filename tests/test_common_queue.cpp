// Unit tests for common/sharded_queue (ShardedMpmcQueue),
// common/deadline_heap (DeadlineHeap) and common/sync primitives.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/deadline_heap.hpp"
#include "common/sharded_queue.hpp"
#include "common/sync.hpp"
#include "executor/executor.hpp"

namespace evmp::common {
namespace {

// --- ShardedMpmcQueue ------------------------------------------------------

TEST(ShardedMpmcQueue, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(ShardedMpmcQueue<int>(1).shard_count(), 1u);
  EXPECT_EQ(ShardedMpmcQueue<int>(3).shard_count(), 4u);
  EXPECT_EQ(ShardedMpmcQueue<int>(8).shard_count(), 8u);
}

TEST(ShardedMpmcQueue, SingleProducerFifoOrder) {
  // One producer always lands in its home shard, so a lone consumer sees
  // strict FIFO — the per-shard (hence per-producer) ordering guarantee.
  ShardedMpmcQueue<int> q(8);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 100; ++i) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(ShardedMpmcQueue, PerShardFifoWithExplicitShards) {
  ShardedMpmcQueue<int> q(4);
  // Interleave pushes into two shards; each shard must stay FIFO.
  q.push_to(0, 1);
  q.push_to(2, 100);
  q.push_to(0, 2);
  q.push_to(2, 200);
  std::vector<int> shard0, shard2;
  for (int i = 0; i < 4; ++i) {
    auto v = q.try_pop(0);
    ASSERT_TRUE(v.has_value());
    (*v < 100 ? shard0 : shard2).push_back(*v);
  }
  EXPECT_EQ(shard0, (std::vector<int>{1, 2}));
  EXPECT_EQ(shard2, (std::vector<int>{100, 200}));
}

TEST(ShardedMpmcQueue, PopPullsFromSiblingShards) {
  ShardedMpmcQueue<int> q(4);
  q.push_to(3, 7);  // consumer's home shard 0 is empty
  auto v = q.pop(0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
  EXPECT_GE(q.stats().steals, 1u);
}

TEST(ShardedMpmcQueue, BatchEquivalentToIndividualPushes) {
  // push_batch must deliver exactly the items N pushes would, in the same
  // (single-producer) order.
  ShardedMpmcQueue<int> q(4);
  std::vector<int> batch{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(q.push_batch(batch), 8u);
  EXPECT_EQ(q.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  const auto s = q.stats();
  EXPECT_EQ(s.batch_pushes, 1u);
  EXPECT_EQ(s.batch_items, 8u);
  EXPECT_EQ(s.pops, 8u);
}

TEST(ShardedMpmcQueue, MoveOnlyPayload) {
  ShardedMpmcQueue<std::unique_ptr<int>> q(2);
  std::vector<std::unique_ptr<int>> batch;
  batch.push_back(std::make_unique<int>(1));
  batch.push_back(std::make_unique<int>(2));
  EXPECT_EQ(q.push_batch(batch), 2u);
  EXPECT_TRUE(q.push(std::make_unique<int>(3)));
  EXPECT_EQ(**q.pop(), 1);
  EXPECT_EQ(**q.pop(), 2);
  EXPECT_EQ(**q.pop(), 3);
}

TEST(ShardedMpmcQueue, CloseRefusesPushAndWholeBatches) {
  // One shard is the single-lock layout of a one-thread pool; four stripe
  // it. Either way close() refuses new items and keeps queued ones
  // poppable, in order.
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    ShardedMpmcQueue<int> q(shards);
    q.push(1);
    q.push(2);
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.push(3));
    std::vector<int> batch{4, 5, 6};
    // close-while-batching contract: the batch is refused atomically — no
    // partial admission.
    EXPECT_EQ(q.push_batch(batch), 0u);
    EXPECT_EQ(*q.pop(), 1);  // pre-close items still drain
    EXPECT_EQ(*q.pop(), 2);
    EXPECT_FALSE(q.pop().has_value());
    EXPECT_EQ(q.size(), 0u);
  }
}

TEST(ShardedMpmcQueue, CloseWakesBlockedConsumers) {
  ShardedMpmcQueue<int> q(4);
  std::atomic<int> woke{0};
  {
    std::vector<std::jthread> consumers;
    for (int i = 0; i < 3; ++i) {
      consumers.emplace_back([&] {
        auto v = q.pop();
        EXPECT_FALSE(v.has_value());
        woke.fetch_add(1);
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    q.close();
  }
  EXPECT_EQ(woke.load(), 3);
}

TEST(ShardedMpmcQueue, PopBlocksUntilPush) {
  ShardedMpmcQueue<int> q(4);
  std::jthread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
    q.push(42);
  });
  auto v = q.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
}

TEST(ShardedMpmcQueue, StressEveryItemDeliveredOnce) {
  // Multi-producer multi-consumer, mixed single and batched pushes, with a
  // concurrent close after all producers joined: every item delivered
  // exactly once, none stranded behind the shutdown — on the single-lock
  // layout and on a striped queue.
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    ShardedMpmcQueue<int> q(shards);
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr int kPerProducer = 4000;
    std::mutex seen_mu;
    std::multiset<int> seen;
    {
      std::vector<std::jthread> threads;
      for (int c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&] {
          while (auto v = q.pop()) {
            std::scoped_lock lk(seen_mu);
            seen.insert(*v);
          }
        });
      }
      {
        std::vector<std::jthread> producers;
        for (int p = 0; p < kProducers; ++p) {
          producers.emplace_back([&q, p] {
            std::vector<int> batch;
            for (int i = 0; i < kPerProducer; ++i) {
              const int value = p * kPerProducer + i;
              if (p % 2 == 0) {
                q.push(value);
              } else {
                batch.push_back(value);
                if (batch.size() == 16) {
                  q.push_batch(batch);
                  batch.clear();
                }
              }
            }
            if (!batch.empty()) q.push_batch(batch);
          });
        }
      }
      q.close();
    }
    ASSERT_EQ(seen.size(),
              static_cast<std::size_t>(kProducers) * kPerProducer);
    for (int v = 0; v < kProducers * kPerProducer; ++v) {
      ASSERT_EQ(seen.count(v), 1u) << "value " << v;
    }
    const auto s = q.stats();
    EXPECT_EQ(s.pops, static_cast<std::uint64_t>(kProducers) * kPerProducer);
    EXPECT_GT(s.batch_pushes, 0u);
  }
}

TEST(CountdownLatch, OpensAtZero) {
  CountdownLatch latch(2);
  EXPECT_EQ(latch.pending(), 2u);
  latch.count_down();
  EXPECT_FALSE(latch.wait_for(std::chrono::milliseconds{1}));
  latch.count_down();
  latch.wait();  // returns immediately
  EXPECT_EQ(latch.pending(), 0u);
}

TEST(CountdownLatch, ExtraCountDownIsHarmless) {
  CountdownLatch latch(1);
  latch.count_down();
  latch.count_down();  // no underflow
  EXPECT_TRUE(latch.wait_for(std::chrono::milliseconds{1}));
}

TEST(CountdownLatch, CrossThreadRelease) {
  CountdownLatch latch(3);
  {
    std::vector<std::jthread> workers;
    for (int i = 0; i < 3; ++i) {
      workers.emplace_back([&latch] { latch.count_down(); });
    }
  }
  EXPECT_TRUE(latch.wait_for(std::chrono::seconds{5}));
}

TEST(CountdownLatch, ResetRearms) {
  CountdownLatch latch(1);
  latch.count_down();
  latch.wait();
  latch.reset(1);
  EXPECT_FALSE(latch.wait_for(std::chrono::milliseconds{1}));
}

TEST(ManualResetEvent, SetReleasesWaiters) {
  ManualResetEvent ev;
  EXPECT_FALSE(ev.is_set());
  std::jthread setter([&ev] {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
    ev.set();
  });
  ev.wait();
  EXPECT_TRUE(ev.is_set());
}

TEST(ManualResetEvent, ResetBlocksAgain) {
  ManualResetEvent ev;
  ev.set();
  ev.wait();
  ev.reset();
  EXPECT_FALSE(ev.is_set());
}

// --- DeadlineHeap ----------------------------------------------------------

TEST(DeadlineHeap, EqualDeadlinesPopInPushOrder) {
  DeadlineHeap<int> h;
  const TimePoint t0 = now();
  for (int i = 0; i < 32; ++i) h.push(t0, i);
  EXPECT_EQ(h.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(h.pop(), i);
  EXPECT_TRUE(h.empty());
}

TEST(DeadlineHeap, PopDueLeavesEntriesNotYetDue) {
  DeadlineHeap<int> h;
  EXPECT_EQ(h.next_due(), TimePoint::max());
  const TimePoint t0 = now();
  h.push(t0 + Millis{20}, 20);
  h.push(t0 + Millis{10}, 10);
  h.push(t0 + Millis{30}, 30);
  EXPECT_EQ(h.next_due(), t0 + Millis{10});
  EXPECT_FALSE(h.pop_due(t0).has_value());
  EXPECT_EQ(h.pop_due(t0 + Millis{10}), 10);  // due == now counts as due
  EXPECT_FALSE(h.pop_due(t0 + Millis{15}).has_value());
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.next_due(), t0 + Millis{20});
  EXPECT_EQ(h.pop_due(t0 + Millis{40}), 20);
  EXPECT_EQ(h.pop_due(t0 + Millis{40}), 30);
  EXPECT_FALSE(h.pop_due(t0 + Millis{40}).has_value());
}

TEST(DeadlineHeap, PopDrainsInDeadlineOrder) {
  DeadlineHeap<int> h;
  const TimePoint t0 = now();
  // Pushed out of order, with ties, so both keys matter.
  const int delays[] = {7, 3, 9, 3, 1, 7, 0, 5};
  for (int i = 0; i < 8; ++i) h.push(t0 + Millis{delays[i]}, i);
  std::vector<int> order;
  while (!h.empty()) order.push_back(h.pop());
  EXPECT_EQ(order, (std::vector<int>{6, 4, 1, 3, 7, 0, 5, 2}));
}

TEST(DeadlineHeap, MoveOnlyPayloads) {
  DeadlineHeap<exec::Task> tasks;
  std::vector<int> ran;
  const TimePoint t0 = now();
  auto owned = std::make_unique<int>(2);
  tasks.push(t0 + Millis{2},
             exec::Task([&ran, p = std::move(owned)] { ran.push_back(*p); }));
  tasks.push(t0 + Millis{1}, exec::Task([&ran] { ran.push_back(1); }));
  while (auto task = tasks.pop_due(t0 + Millis{5})) (*task)();
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));

  DeadlineHeap<std::unique_ptr<int>> ptrs;
  ptrs.push(t0, std::make_unique<int>(5));
  EXPECT_EQ(*ptrs.pop(), 5);
}

}  // namespace
}  // namespace evmp::common
