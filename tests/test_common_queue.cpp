// Unit tests for common/mpsc_list (MpscList, the one run list),
// common/deadline_heap (DeadlineHeap) and common/sync primitives.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/deadline_heap.hpp"
#include "common/mpsc_list.hpp"
#include "common/sync.hpp"
#include "executor/executor.hpp"

namespace evmp::common {
namespace {

// --- MpscList --------------------------------------------------------------

// A test node: which producer pushed it and its place in that producer's
// sequence.
struct Item {
  int producer = 0;
  int seq = 0;
  bool accepted = false;  ///< its push returned true
  std::atomic<int> pops{0};
  std::atomic<Item*> next{nullptr};
};
using List = MpscList<Item>;

// Producer `p` pushes `items` (already sized) in order, one push per item.
// `before_push` runs before each push and returns whether close() had
// returned; a push that starts after that must be refused. The producer
// stops at its first refusal. Returns the number of items accepted.
template <class BeforePush>
std::size_t produce(List& list, std::vector<Item>& items, std::size_t p,
                    BeforePush before_push) {
  std::size_t i = 0;
  for (; i < items.size(); ++i) {
    Item& item = items[i];
    item.producer = static_cast<int>(p);
    item.seq = static_cast<int>(i);
    const bool saw_closed = before_push();
    if (!list.push(&item)) break;
    if (saw_closed) {
      ADD_FAILURE() << "push after close() accepted: producer " << p
                    << " item " << i;
      break;
    }
    item.accepted = true;
  }
  return i;
}

TEST(MpscList, FifoSingleThread) {
  List list;
  std::vector<Item> items(5);
  Item* out = nullptr;
  EXPECT_EQ(list.try_pop(out), List::Pop::kEmpty);
  for (Item& item : items) ASSERT_TRUE(list.push(&item));
  EXPECT_EQ(list.size(), 5u);
  for (Item& expected : items) {
    ASSERT_EQ(list.try_pop(out), List::Pop::kTaken);
    EXPECT_EQ(out, &expected);
  }
  EXPECT_EQ(list.try_pop(out), List::Pop::kEmpty);
  EXPECT_EQ(list.size(), 0u);
  // A popped node may be pushed again.
  ASSERT_TRUE(list.push(&items[2]));
  ASSERT_EQ(list.try_pop(out), List::Pop::kTaken);
  EXPECT_EQ(out, &items[2]);
}

TEST(MpscList, BusyWhileConsumerSideHeld) {
  List list;
  Item a;
  ASSERT_TRUE(list.push(&a));
  ASSERT_TRUE(list.try_lock_consumer());
  Item* out = nullptr;
  EXPECT_EQ(list.try_pop(out), List::Pop::kBusy);
  EXPECT_EQ(list.size(), 1u);
  EXPECT_FALSE(list.try_lock_consumer());
  list.unlock_consumer();
  ASSERT_EQ(list.try_pop(out), List::Pop::kTaken);
  EXPECT_EQ(out, &a);
  // An empty list answers kEmpty without touching the consumer side.
  ASSERT_TRUE(list.try_lock_consumer());
  EXPECT_EQ(list.try_pop(out), List::Pop::kEmpty);
  list.unlock_consumer();
}

TEST(MpscList, CloseRefusesPushes) {
  List list;
  std::vector<Item> items(3);
  ASSERT_TRUE(list.push(&items[0]));
  list.close();
  list.close();  // idempotent
  EXPECT_TRUE(list.closed());
  EXPECT_FALSE(list.push(&items[1]));
  EXPECT_FALSE(list.push(&items[2]));
  EXPECT_EQ(list.size(), 1u);
  std::vector<Item*> drained;
  list.drain([&](Item* item) { drained.push_back(item); });
  EXPECT_EQ(drained, (std::vector<Item*>{&items[0]}));
  EXPECT_EQ(list.size(), 0u);
}

// produce()'s `before_push` for producers that never race a close().
bool no_close() { return false; }

TEST(MpscList, ExactlyOnceFourProducersTwoConsumers) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 20000;
  constexpr std::size_t kTotal = kProducers * kPerProducer;
  List list;
  std::vector<std::vector<Item>> items(kProducers);
  for (auto& v : items) v = std::vector<Item>(kPerProducer);
  std::atomic<std::size_t> popped{0};
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < 2; ++c) {
      threads.emplace_back([&] {
        Item* out = nullptr;
        while (popped.load(std::memory_order_relaxed) < kTotal) {
          if (list.try_pop(out) == List::Pop::kTaken) {
            out->pops.fetch_add(1, std::memory_order_relaxed);
            popped.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::size_t p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        EXPECT_EQ(produce(list, items[p], p, no_close), kPerProducer);
      });
    }
  }
  EXPECT_EQ(list.size(), 0u);
  for (const auto& v : items) {
    for (const Item& item : v) {
      ASSERT_EQ(item.pops.load(), 1)
          << "producer " << item.producer << " seq " << item.seq;
    }
  }
}

TEST(MpscList, FifoPerProducer) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 20000;
  List list;
  std::vector<std::vector<Item>> items(kProducers);
  for (auto& v : items) v = std::vector<Item>(kPerProducer);
  std::vector<int> next_seq(kProducers, 0);
  std::size_t popped = 0;
  {
    std::vector<std::jthread> threads;
    for (std::size_t p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] { produce(list, items[p], p, no_close); });
    }
    Item* out = nullptr;
    while (popped < kProducers * kPerProducer) {
      if (list.try_pop(out) != List::Pop::kTaken) continue;
      ++popped;
      const auto p = static_cast<std::size_t>(out->producer);
      ASSERT_EQ(out->seq, next_seq[p]) << "producer " << p;
      ++next_seq[p];
    }
  }
}

TEST(MpscList, CloseRacingProducersDeliversExactlyTheAccepted) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kCap = 100000;
  List list;
  std::vector<std::vector<Item>> items(kProducers);
  for (auto& v : items) v = std::vector<Item>(kCap);
  std::atomic<bool> close_returned{false};
  std::atomic<std::size_t> attempts{0};
  std::atomic<bool> producing{true};
  {
    // One consumer pops while the producers race the close.
    std::jthread consumer([&] {
      Item* out = nullptr;
      while (producing.load(std::memory_order_acquire)) {
        if (list.try_pop(out) == List::Pop::kTaken) out->pops.fetch_add(1);
      }
    });
    {
      std::vector<std::jthread> producers;
      for (std::size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
          produce(list, items[p], p, [&] {
            attempts.fetch_add(1, std::memory_order_relaxed);
            return close_returned.load(std::memory_order_acquire);
          });
        });
      }
      while (attempts.load(std::memory_order_relaxed) < 2000) {
        std::this_thread::yield();
      }
      list.close();
      close_returned.store(true, std::memory_order_release);
    }
    producing.store(false, std::memory_order_release);
  }
  // Drain what the consumer left: the count must reach zero.
  list.drain([](Item* item) { item->pops.fetch_add(1); });
  EXPECT_EQ(list.size(), 0u);
  Item* out = nullptr;
  EXPECT_EQ(list.try_pop(out), List::Pop::kEmpty);
  std::size_t refused = 0;
  for (const auto& v : items) {
    for (const Item& item : v) {
      ASSERT_EQ(item.pops.load(), item.accepted ? 1 : 0)
          << "producer " << item.producer << " seq " << item.seq;
      if (!item.accepted) ++refused;
    }
  }
  RecordProperty("refused", static_cast<int>(refused));
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
