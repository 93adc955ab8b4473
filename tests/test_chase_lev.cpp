// Tests for the lock-free Chase–Lev deque and the EventCount parking
// primitive backing WorkStealingExecutor. The stress cases are sized to be
// meaningful under the TSan CI leg (which is where the memory-ordering
// claims of DESIGN.md §9 are actually checked by a tool).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/chase_lev_deque.hpp"
#include "common/event_count.hpp"

namespace evmp::common {
namespace {

using Deque = ChaseLevDeque<std::uint64_t*>;
using Steal = Deque::Steal;

// The deque stores pointers; tests use indices into this backing array so
// every popped/stolen value is identifiable.
std::vector<std::uint64_t> make_values(std::size_t n) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

TEST(ChaseLevDeque, OwnerPopsLifo) {
  auto values = make_values(10);
  Deque deque;
  for (auto& v : values) deque.push_bottom(&v);
  EXPECT_EQ(deque.size(), 10u);
  for (int i = 9; i >= 0; --i) {
    std::uint64_t* out = nullptr;
    ASSERT_TRUE(deque.pop_bottom(out));
    EXPECT_EQ(*out, static_cast<std::uint64_t>(i));
  }
  std::uint64_t* out = nullptr;
  EXPECT_FALSE(deque.pop_bottom(out));
  EXPECT_TRUE(deque.empty());
}

TEST(ChaseLevDeque, ThievesStealFifo) {
  auto values = make_values(10);
  Deque deque;
  for (auto& v : values) deque.push_bottom(&v);
  for (std::uint64_t i = 0; i < 10; ++i) {
    std::uint64_t* out = nullptr;
    ASSERT_EQ(deque.steal_top(out), Steal::kSuccess);
    EXPECT_EQ(*out, i);
  }
  std::uint64_t* out = nullptr;
  EXPECT_EQ(deque.steal_top(out), Steal::kEmpty);
}

TEST(ChaseLevDeque, GrowsPastInitialCapacityAndRetiresBuffers) {
  auto values = make_values(1000);
  Deque deque(/*initial_capacity=*/64);
  EXPECT_EQ(deque.capacity(), 64u);
  for (auto& v : values) deque.push_bottom(&v);
  EXPECT_GE(deque.capacity(), 1000u);
  EXPECT_GE(deque.retired_buffers(), 1u);  // old arrays parked, not freed
  // Every element survives the copies: pop all, LIFO.
  for (int i = 999; i >= 0; --i) {
    std::uint64_t* out = nullptr;
    ASSERT_TRUE(deque.pop_bottom(out));
    ASSERT_EQ(*out, static_cast<std::uint64_t>(i));
  }
}

TEST(ChaseLevDeque, GrowUnderConcurrentSteal) {
  // The owner pushes enough to force repeated growth while a thief steals
  // continuously — the retired-buffer chain is what makes the thief's racy
  // reads of stale arrays safe.
  constexpr std::uint64_t kItems = 20000;
  // Element values are written by the owner *after* the thief starts, so
  // a race detector checks the push→steal publication edge for the
  // payload, not just index conservation.
  std::vector<std::uint64_t> values(kItems);
  Deque deque(/*initial_capacity=*/64);
  std::atomic<std::uint64_t> stolen_sum{0};
  std::atomic<std::uint64_t> stolen_count{0};
  std::atomic<bool> done{false};

  std::thread thief([&] {
    std::uint64_t* out = nullptr;
    while (!done.load(std::memory_order_acquire) || !deque.empty()) {
      if (deque.steal_top(out) == Steal::kSuccess) {
        stolen_sum.fetch_add(*out, std::memory_order_relaxed);
        stolen_count.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  std::uint64_t owned_sum = 0;
  std::uint64_t owned_count = 0;
  for (std::uint64_t i = 0; i < kItems; ++i) {
    values[i] = i;
    deque.push_bottom(&values[i]);
  }
  std::uint64_t* out = nullptr;
  while (deque.pop_bottom(out)) {
    owned_sum += *out;
    ++owned_count;
  }
  done.store(true, std::memory_order_release);
  thief.join();

  EXPECT_EQ(owned_count + stolen_count.load(), kItems);
  EXPECT_EQ(owned_sum + stolen_sum.load(), kItems * (kItems - 1) / 2);
  EXPECT_GE(deque.retired_buffers(), 1u);
}

TEST(ChaseLevDeque, OneOwnerManyThievesEveryElementExactlyOnce) {
  // 1 owner × N thieves over interleaved push/pop: each element must be
  // surrendered exactly once (no loss, no duplication). Runs under the
  // TSan CI leg, which validates the fence placement.
  constexpr int kThieves = 4;
  constexpr std::uint64_t kItems = 50000;
  std::vector<std::uint64_t> values(kItems);  // written just before push
  Deque deque;
  std::atomic<std::uint64_t> taken_sum{0};
  std::atomic<std::uint64_t> taken_count{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      std::uint64_t* out = nullptr;
      while (!done.load(std::memory_order_acquire) || !deque.empty()) {
        if (deque.steal_top(out) == Steal::kSuccess) {
          taken_sum.fetch_add(*out, std::memory_order_relaxed);
          taken_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Owner: bursts of pushes with pops in between (the executor's pattern).
  std::uint64_t owner_sum = 0;
  std::uint64_t owner_count = 0;
  std::size_t next = 0;
  while (next < kItems) {
    const std::size_t burst = std::min<std::size_t>(64, kItems - next);
    for (std::size_t i = 0; i < burst; ++i) {
      values[next] = next;
      deque.push_bottom(&values[next]);
      ++next;
    }
    std::uint64_t* out = nullptr;
    for (std::size_t i = 0; i < burst / 2; ++i) {
      if (!deque.pop_bottom(out)) break;
      owner_sum += *out;
      ++owner_count;
    }
  }
  std::uint64_t* out = nullptr;
  while (deque.pop_bottom(out)) {
    owner_sum += *out;
    ++owner_count;
  }
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();

  EXPECT_EQ(owner_count + taken_count.load(), kItems);
  EXPECT_EQ(owner_sum + taken_sum.load(), kItems * (kItems - 1) / 2);
}

TEST(EventCount, NotifyBeforeCommitIsNotLost) {
  // The classic lost-wakeup shape: consumer prepares, condition becomes
  // true, producer notifies *before* the consumer commits. commit_wait
  // must return immediately (epoch moved), not sleep forever.
  EventCount ec;
  const auto key = ec.prepare_wait();
  ec.notify_one();       // fires while no one is parked yet
  ec.commit_wait(key);   // must not block
  SUCCEED();
}

TEST(EventCount, CancelAfterConditionObserved) {
  EventCount ec;
  const auto key = ec.prepare_wait();
  (void)key;
  ec.cancel_wait();
  EXPECT_FALSE(ec.has_waiters());
}

TEST(EventCount, SingleSlotHandoffNeverLosesAWakeup) {
  // Producer/consumer over a single atomic slot with no other
  // synchronisation: if any notify were lost the consumer would park
  // forever and the test would time out (ctest TIMEOUT backstop).
  constexpr int kRounds = 20000;
  EventCount ec;
  std::atomic<int> slot{0};

  std::thread consumer([&] {
    for (int expected = 1; expected <= kRounds;) {
      if (slot.load(std::memory_order_acquire) >= expected) {
        ++expected;
        continue;
      }
      const auto key = ec.prepare_wait();
      if (slot.load(std::memory_order_acquire) >= expected) {
        ec.cancel_wait();
        continue;
      }
      ec.commit_wait(key);
    }
  });

  for (int i = 1; i <= kRounds; ++i) {
    slot.store(i, std::memory_order_release);
    ec.notify_one();
  }
  consumer.join();
  EXPECT_EQ(slot.load(), kRounds);
}

TEST(EventCount, NotifyAllReleasesEveryWaiter) {
  constexpr int kWaiters = 4;
  EventCount ec;
  std::atomic<bool> go{false};
  std::atomic<int> woken{0};
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      for (;;) {
        if (go.load(std::memory_order_acquire)) break;
        const auto key = ec.prepare_wait();
        if (go.load(std::memory_order_acquire)) {
          ec.cancel_wait();
          break;
        }
        ec.commit_wait(key);
      }
      woken.fetch_add(1);
    });
  }
  // Give the waiters a moment to actually park, then release them all.
  std::this_thread::sleep_for(std::chrono::milliseconds{50});
  go.store(true, std::memory_order_release);
  ec.notify_all();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(woken.load(), kWaiters);
}

TEST(EventCount, TimedCommitReturnsFalseAtDeadline) {
  EventCount ec;
  const auto start = now();
  const auto key = ec.prepare_wait();
  EXPECT_FALSE(ec.commit_wait_until(key, start + Millis{5}));
  EXPECT_GE(now() - start, Millis{5});
  EXPECT_FALSE(ec.has_waiters());
  // A deadline already in the past does not sleep at all.
  const auto stale = ec.prepare_wait();
  EXPECT_FALSE(ec.commit_wait_until(stale, start));
}

TEST(EventCount, TimedCommitWakesOnNotify) {
  EventCount ec;
  std::atomic<bool> go{false};
  std::thread notifier([&] {
    std::this_thread::sleep_for(Millis{5});
    go.store(true, std::memory_order_release);
    ec.notify_one();
  });
  const auto start = now();
  while (!go.load(std::memory_order_acquire)) {
    const auto key = ec.prepare_wait();
    if (go.load(std::memory_order_acquire)) {
      ec.cancel_wait();
      break;
    }
    ec.commit_wait_until(key, start + std::chrono::seconds{10});
  }
  notifier.join();
  // Woken by the notify, long before the 10 s deadline.
  EXPECT_LT(now() - start, std::chrono::seconds{5});
}

TEST(Parker, RecycledToTheNextThreadAndFoundById) {
  std::uint32_t first_id = 0;
  std::thread([&] { first_id = Parker::current().id; }).join();
  ASSERT_NE(first_id, 0u);
  EXPECT_EQ(&Parker::from_id(first_id).events,
            &Parker::from_id(first_id).events);
  // The exited thread's parker is reused, not leaked: a new thread draws
  // from the free list (LIFO), so it gets the same parker back.
  std::uint32_t second_id = 0;
  std::thread([&] { second_id = Parker::current().id; }).join();
  EXPECT_EQ(second_id, first_id);
  EXPECT_EQ(&Parker::current(), &Parker::current());
}

}  // namespace
}  // namespace evmp::common
