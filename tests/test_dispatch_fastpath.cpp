// Tests for the zero-allocation dispatch fast path: pooled completion
// states (recycling, reuse after exception, no recycle under a live
// waiter, late notifies to recycled parkers), the lock-free tag groups
// under producer and teardown stress, and wait_for's duration shim.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/object_pool.hpp"
#include "common/sync.hpp"
#include "core/runtime.hpp"
#include "core/tag_group.hpp"
#include "executor/completion.hpp"
#include "executor/thread_pool_executor.hpp"

namespace evmp {
namespace {

using exec::CompletionRef;
using exec::CompletionState;

// --- completion-state pooling -------------------------------------------

TEST(CompletionPool, StateIsRecycledAfterLastRefDrops) {
  CompletionState* first;
  {
    CompletionRef ref = CompletionState::make();
    first = ref.get();
    ref->set_done();
  }
  // The thread-local cache is LIFO, so the very next acquire on this
  // thread returns the state we just released — re-armed to pending.
  CompletionRef again = CompletionState::make();
  EXPECT_EQ(again.get(), first);
  EXPECT_FALSE(again->done());
  EXPECT_FALSE(again->failed());
}

TEST(CompletionPool, ReuseAfterExceptionIsClean) {
  CompletionState* first;
  {
    CompletionRef ref = CompletionState::make();
    first = ref.get();
    ref->set_exception(std::make_exception_ptr(std::runtime_error("boom")));
    EXPECT_THROW(ref->wait(), std::runtime_error);
  }
  // Recycled state must not resurrect the old exception.
  CompletionRef again = CompletionState::make();
  ASSERT_EQ(again.get(), first);
  EXPECT_FALSE(again->failed());
  again->set_done();
  again->wait();  // must not throw
}

TEST(CompletionPool, NoRecycleWhileWaiterHoldsRef) {
  CompletionRef producer = CompletionState::make();
  CompletionState* raw = producer.get();
  CompletionRef waiter = producer;  // second reference
  producer->set_done();
  producer.reset();  // runner dropped its ref; waiter still live
  // The state must NOT be back in the pool yet: a fresh make() on this
  // thread must hand out a different object.
  CompletionRef fresh = CompletionState::make();
  EXPECT_NE(fresh.get(), raw);
  waiter->wait();
  waiter.reset();  // now the last ref drops and it recycles
  CompletionRef reused = CompletionState::make();
  EXPECT_EQ(reused.get(), raw);
}

TEST(CompletionPool, CrossThreadLifecycleStress) {
  // Producer/consumer churn exercising pooled acquire/release from two
  // threads — the pattern TSan/ASan legs verify for the recycle protocol.
  constexpr int kRounds = 2000;
  for (int i = 0; i < kRounds; ++i) {
    CompletionRef ref = CompletionState::make();
    std::jthread t([ref]() mutable {
      ref->set_done();
      ref.reset();  // runner-side drop may be the last ref
    });
    ref->wait();
    ref.reset();
  }
  const auto stats = common::ObjectPool<CompletionState>::stats();
  // The pool must have bounded the population far below the round count.
  EXPECT_LT(stats.allocated, static_cast<std::size_t>(kRounds) / 4);
}

TEST(CompletionState, WaitForShimAcceptsArbitraryDurations) {
  CompletionState s;
  // Template shim: seconds-typed and float-typed durations forward to the
  // nanoseconds hot path.
  EXPECT_FALSE(s.wait_for(std::chrono::duration<double>(0.002)));
  EXPECT_FALSE(s.wait_for(std::chrono::milliseconds{1}));
  s.set_done();
  EXPECT_TRUE(s.wait_for(std::chrono::seconds{1}));
}

TEST(CompletionState, AtomicWaitWakesCrossThread) {
  CompletionState s;
  std::jthread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
    s.set_done();
  });
  s.wait();  // parks on the futex past the spin window
  EXPECT_TRUE(s.done());
}

TEST(CompletionPool, SetterNotifiesAfterWaiterThreadExited) {
  // A short-lived thread parks on a state (publishing its parker there),
  // times out and exits; its parker goes back to the free list and the
  // next thread reuses it. The late set_done() then notifies a parker
  // that now serves another wait: a spurious wakeup, nothing worse.
  constexpr int kRounds = 500;
  for (int i = 0; i < kRounds; ++i) {
    CompletionRef late = CompletionState::make();
    std::thread([late] {
      EXPECT_FALSE(late->wait_for(std::chrono::microseconds{300}));
    }).join();
    CompletionRef other = CompletionState::make();
    std::thread next([other] { other->wait(); });
    late->set_done();
    other->set_done();
    next.join();
  }
}

// --- tag groups under stress --------------------------------------------

TEST(TagGroupStress, SixteenProducersOneTag) {
  Runtime rt;
  rt.create_worker("worker", 2);
  constexpr int kProducers = 16;
  constexpr int kPerProducer = 50;
  std::atomic<int> done{0};
  {
    std::vector<std::jthread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < kPerProducer; ++i) {
          rt.invoke_target_block(
              "worker", [&] { done.fetch_add(1, std::memory_order_relaxed); },
              Async::kNameAs, "stress-tag");
        }
        rt.wait_tag("stress-tag");
      });
    }
  }
  // Every producer joined the same tag; all blocks must have run.
  rt.wait_tag("stress-tag");
  EXPECT_EQ(done.load(), kProducers * kPerProducer);
  rt.clear();
}

TEST(TagGroupStress, ExceptionSurfacesThroughWaitTag) {
  Runtime rt;
  rt.create_worker("worker", 1);
  common::ManualResetEvent release;
  rt.invoke_target_block(
      "worker",
      [&] {
        release.wait();
        throw std::runtime_error("tagged failure");
      },
      Async::kNameAs, "failing-tag");
  release.set();
  EXPECT_THROW(rt.wait_tag("failing-tag"), std::runtime_error);
  // The error is consumed: the next wait on the (now idle) tag succeeds.
  rt.wait_tag("failing-tag");
  rt.clear();
}

TEST(TagGroupStress, RuntimeDestroyedRightAfterForeignWaitTag) {
  // The last leave() may still be running when wait_tag returns, and the
  // waiter destroys the runtime — tag registry included — at once. The
  // pool outlives every runtime, so nothing joins the leaver first: only
  // leave()'s "the decrement is the last access" rule keeps this clean
  // under ASan. Every 100th round holds a block for 1 ms so the waiter
  // parks and the leaver's notify path runs too.
  constexpr int kRounds = 10000;
  exec::ThreadPoolExecutor pool("external", 2);
  for (int i = 0; i < kRounds; ++i) {
    auto runtime = std::make_unique<Runtime>();
    runtime->register_executor("worker", pool);
    for (int b = 0; b < 2; ++b) {
      runtime->invoke_target_block(
          "worker",
          [i, b] {
            if (i % 100 == 0 && b == 1) {
              common::precise_sleep(common::Millis{1});
            }
          },
          Async::kNameAs, "t");
    }
    runtime->wait_tag("t");
    runtime.reset();
  }
}

TEST(TagRegistry, ShardedRegistryCountsCreations) {
  TagRegistry reg;
  EXPECT_EQ(reg.size(), 0u);
  for (int i = 0; i < 64; ++i) {
    reg.group("tag-" + std::to_string(i));
  }
  reg.group("tag-0");  // existing: no new creation
  EXPECT_EQ(reg.size(), 64u);
  EXPECT_EQ(reg.created(), 64u);
}

TEST(TagRegistry, ConcurrentDistinctTagsDoNotLoseGroups) {
  TagRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kTagsPerThread = 64;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kTagsPerThread; ++i) {
          TagGroup& g =
              reg.group("t" + std::to_string(t) + "-" + std::to_string(i));
          g.enter();
          g.leave(nullptr);
        }
      });
    }
  }
  EXPECT_EQ(reg.size(),
            static_cast<std::size_t>(kThreads) * kTagsPerThread);
}

// --- runtime stats on the new path ---------------------------------------

TEST(DispatchStats, CountersAdvanceWithoutStatsLock) {
  Runtime rt;
  rt.create_worker("worker", 1);
  rt.reset_stats();
  rt.invoke_target_block("worker", [] {}, Async::kDefault);
  rt.invoke_target_block("worker", [] {}, Async::kAwait);
  auto h = rt.invoke_target_block("worker", [] {}, Async::kNowait);
  h.wait();
  const RuntimeStats s = rt.stats();
  EXPECT_EQ(s.posted, 3u);
  EXPECT_EQ(s.default_waits, 1u);
  EXPECT_EQ(s.awaits, 1u);
  rt.clear();
}

}  // namespace
}  // namespace evmp
