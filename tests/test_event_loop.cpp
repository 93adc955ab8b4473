// Unit tests for the EventLoop (EDT), its re-entrant pump, timers,
// instrumentation, and the ResponseProbe / OpenLoopDriver load machinery.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/sync.hpp"
#include "common/tracing.hpp"
#include "event/event_loop.hpp"
#include "event/load.hpp"
#include "executor/thread_pool_executor.hpp"

namespace evmp::event {
namespace {

TEST(EventLoop, DispatchesPostedEvents) {
  EventLoop loop;
  loop.start();
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    loop.post([&] { count.fetch_add(1); });
  }
  loop.wait_until_idle();
  EXPECT_EQ(count.load(), 10);
  EXPECT_EQ(loop.dispatched(), 10u);
}

TEST(EventLoop, PostBatchDispatchesInSubmissionOrder) {
  EventLoop loop;
  loop.start();
  std::vector<int> order;
  std::vector<exec::Task> batch;
  for (int i = 0; i < 16; ++i) {
    batch.emplace_back([&order, i] { order.push_back(i); });
  }
  loop.post_batch(batch);
  loop.wait_until_idle();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  EXPECT_EQ(loop.dispatched(), 16u);
  EXPECT_EQ(loop.batch_posts(), 1u);
}

TEST(EventLoop, PostBatchToStoppedLoopIsDropped) {
  EventLoop loop;
  loop.start();
  loop.stop();
  std::atomic<bool> ran{false};
  std::vector<exec::Task> batch;
  batch.emplace_back([&] { ran.store(true); });
  loop.post_batch(batch);
  std::this_thread::sleep_for(std::chrono::milliseconds{5});
  EXPECT_FALSE(ran.load());
}

TEST(EventLoop, FifoDispatchOrder) {
  EventLoop loop;
  loop.start();
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    loop.post([&order, i] { order.push_back(i); });
  }
  loop.wait_until_idle();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoop, IsDispatchThread) {
  EventLoop loop;
  loop.start();
  EXPECT_FALSE(loop.is_dispatch_thread());
  std::atomic<bool> on_edt{false};
  loop.invoke_and_wait([&] { on_edt.store(loop.is_dispatch_thread()); });
  EXPECT_TRUE(on_edt.load());
}

TEST(EventLoop, InvokeAndWaitBlocksUntilRun) {
  EventLoop loop;
  loop.start();
  int value = 0;
  loop.invoke_and_wait([&] { value = 42; });
  EXPECT_EQ(value, 42);
}

TEST(EventLoop, InvokeAndWaitFromEdtRunsInline) {
  EventLoop loop;
  loop.start();
  int depth_value = 0;
  loop.invoke_and_wait([&] {
    // Would deadlock if it enqueued; must run inline.
    loop.invoke_and_wait([&] { depth_value = 7; });
  });
  EXPECT_EQ(depth_value, 7);
}

TEST(EventLoop, PostDelayedFiresAfterDelay) {
  EventLoop loop;
  loop.start();
  common::CountdownLatch latch(1);
  const auto posted = common::now();
  common::TimePoint fired;
  loop.post_delayed(
      [&] {
        fired = common::now();
        latch.count_down();
      },
      common::Millis{20});
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{5}));
  EXPECT_GE(common::elapsed_ns(posted, fired), 18'000'000);
}

TEST(EventLoop, DelayedEventsOrderByDeadline) {
  EventLoop loop;
  loop.start();
  std::vector<int> order;
  common::CountdownLatch latch(3);
  auto push = [&](int v) {
    order.push_back(v);
    latch.count_down();
  };
  loop.post_delayed([&] { push(3); }, common::Millis{40});
  loop.post_delayed([&] { push(1); }, common::Millis{5});
  loop.post_delayed([&] { push(2); }, common::Millis{20});
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{5}));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, PumpOneDispatchesNestedEvent) {
  EventLoop loop;
  loop.start();
  std::atomic<bool> nested_ran{false};
  std::atomic<bool> order_ok{false};
  common::CountdownLatch latch(1);
  loop.post([&] {
    loop.post([&] { nested_ran.store(true); });
    // Re-entrant dispatch from inside a handler: the modified AWT queue.
    while (!nested_ran.load()) {
      ASSERT_TRUE(loop.pump_one());
    }
    order_ok.store(true);
    latch.count_down();
  });
  ASSERT_TRUE(latch.wait_for(std::chrono::seconds{5}));
  EXPECT_TRUE(order_ok.load());
  EXPECT_GE(loop.max_nesting(), 2);
}

TEST(EventLoop, PumpOneFromForeignThreadRefuses) {
  EventLoop loop;
  loop.start();
  loop.post([] {});
  EXPECT_FALSE(loop.pump_one());
  EXPECT_FALSE(loop.try_run_one());
  loop.wait_until_idle();
}

TEST(EventLoop, PumpOneReturnsFalseWhenEmpty) {
  EventLoop loop;
  loop.start();
  std::atomic<bool> pumped{true};
  loop.invoke_and_wait([&] { pumped.store(loop.pump_one()); });
  EXPECT_FALSE(pumped.load());
}

TEST(EventLoop, StopDiscardsPendingEvents) {
  EventLoop loop;
  loop.start();
  common::ManualResetEvent release;
  common::CountdownLatch started(1);
  std::atomic<int> ran{0};
  loop.post([&] {
    started.count_down();
    release.wait();
  });
  ASSERT_TRUE(started.wait_for(std::chrono::seconds{5}));
  loop.post([&] { ran.fetch_add(1); });
  loop.stop();
  release.set();
  // Give the loop a moment to exit.
  while (loop.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  EXPECT_EQ(ran.load(), 0);
}

TEST(EventLoop, PostAfterStopIsDropped) {
  EventLoop loop;
  loop.start();
  loop.stop();
  while (loop.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  loop.post([] { FAIL() << "must not run"; });
  std::this_thread::sleep_for(std::chrono::milliseconds{5});
}

TEST(EventLoop, BusyTimeAccumulates) {
  EventLoop loop;
  loop.start();
  loop.invoke_and_wait([] { common::precise_sleep(common::Millis{15}); });
  loop.wait_until_idle();
  EXPECT_GE(loop.busy_time().count(), 14'000'000);
}

TEST(EventLoop, DispatchDelayRecorded) {
  EventLoop loop;
  loop.start();
  // Jam the EDT so the next event queues for a while.
  loop.post([] { common::precise_sleep(common::Millis{20}); });
  loop.post([] {});
  loop.wait_until_idle();
  EXPECT_EQ(loop.dispatch_delay().total_count(), 2u);
  EXPECT_GE(loop.dispatch_delay().percentile(1.0), 10'000'000u);
}

TEST(EventLoop, ResetStatsClears) {
  EventLoop loop;
  loop.start();
  loop.invoke_and_wait([] {});
  // invoke_and_wait returns once the handler ran, which can be before
  // dispatch() counts it; reset only after the count (and busy time) land.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{5};
  while (loop.dispatched() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(loop.dispatched(), 1u);
  loop.reset_stats();
  EXPECT_EQ(loop.dispatched(), 0u);
  EXPECT_EQ(loop.dispatch_delay().total_count(), 0u);
  EXPECT_EQ(loop.busy_time().count(), 0);
}

TEST(EventLoop, HandlerExceptionDoesNotKillLoop) {
  EventLoop loop;
  loop.start();
  auto prev = exec::unhandled_exception_hook();
  exec::set_unhandled_exception_hook(
      [](std::string_view, std::exception_ptr) {});
  loop.post([] { throw std::runtime_error("handler bug"); });
  std::atomic<bool> survived{false};
  loop.invoke_and_wait([&] { survived.store(true); });
  exec::set_unhandled_exception_hook(prev);
  EXPECT_TRUE(survived.load());
}

TEST(EventLoop, RunOnCallerThread) {
  EventLoop loop;
  std::atomic<bool> ran{false};
  loop.post([&] {
    ran.store(true);
    loop.stop();
  });
  loop.run();  // returns after stop()
  EXPECT_TRUE(ran.load());
}

TEST(EventLoop, PostDelayedAfterStopIsDropped) {
  EventLoop loop;
  loop.start();
  loop.stop();
  while (loop.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  loop.post_delayed([] { FAIL() << "must not run"; }, common::Millis{1});
  std::this_thread::sleep_for(std::chrono::milliseconds{10});
}

TEST(EventLoop, PumpOnePromotesDueTimers) {
  EventLoop loop;
  loop.start();
  std::atomic<bool> timer_ran{false};
  common::CountdownLatch done(1);
  loop.post([&] {
    loop.post_delayed([&] { timer_ran.store(true); }, common::Millis{5});
    // Busy handler pumping: the due timer must surface through pump_one.
    const auto deadline = common::now() + common::Millis{500};
    while (!timer_ran.load() && common::now() < deadline) {
      if (!loop.pump_one()) {
        common::precise_sleep(common::Millis{1});
      }
    }
    done.count_down();
  });
  ASSERT_TRUE(done.wait_for(std::chrono::seconds{5}));
  EXPECT_TRUE(timer_ran.load());
}

TEST(EventLoop, TimersInterleaveWithImmediateEvents) {
  EventLoop loop;
  loop.start();
  std::vector<int> order;
  common::CountdownLatch done(3);
  auto push = [&](int v) {
    order.push_back(v);
    done.count_down();
  };
  loop.post_delayed([&] { push(3); }, common::Millis{30});
  loop.post([&] { push(1); });
  loop.post([&] { push(2); });
  ASSERT_TRUE(done.wait_for(std::chrono::seconds{5}));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// Wait until the EDT has climbed its spin ladder and parked in its idle
// join (it registers as a parked member of its own loop).
bool wait_until_parked(const EventLoop& loop) {
  const auto deadline = common::now() + common::Millis{5000};
  while (loop.parked_members() == 0) {
    if (common::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  return true;
}

TEST(EventLoop, ForeignPostWakesIdleEdt) {
  // The parked EDT has no timer to wake it: only the post's wake does.
  EventLoop loop;
  loop.start();
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(wait_until_parked(loop)) << "round " << round;
    common::CountdownLatch ran(1);
    std::jthread poster([&] { loop.post([&] { ran.count_down(); }); });
    ASSERT_TRUE(ran.wait_for(std::chrono::seconds{2})) << "round " << round;
  }
}

TEST(EventLoop, PostDelayedFromForeignThreadWhileIdleFires) {
  // Nothing else is queued: the EDT must file the timer and bound its next
  // park by the timer's due time.
  EventLoop loop;
  loop.start();
  ASSERT_TRUE(wait_until_parked(loop));
  constexpr auto kDelay = common::Millis{20};
  common::CountdownLatch fired(1);
  common::TimePoint posted;
  common::TimePoint ran_at;
  std::jthread poster([&] {
    posted = common::now();
    loop.post_delayed(
        [&] {
          ran_at = common::now();
          fired.count_down();
        },
        kDelay);
  });
  ASSERT_TRUE(fired.wait_for(std::chrono::seconds{2}));
  poster.join();
  const auto elapsed = common::elapsed_ns(posted, ran_at);
  EXPECT_GE(elapsed, 19'000'000);
  EXPECT_LE(elapsed, 20'000'000 + 500'000'000) << "fired late";
}

TEST(EventLoop, WaitUntilIdleCoversPumpedEvents) {
  // A handler posts two events and pumps them itself: once they ran the
  // queue is empty, but the handler still runs, so the loop is not idle.
  EventLoop loop;
  loop.start();
  common::CountdownLatch started(1);
  std::atomic<int> pumped{0};
  std::atomic<bool> handler_done{false};
  loop.post([&] {
    loop.post([&] { pumped.fetch_add(1); });
    loop.post([&] { pumped.fetch_add(1); });
    started.count_down();
    common::precise_sleep(common::Millis{10});
    while (pumped.load() < 2) ASSERT_TRUE(loop.pump_one());
    common::precise_sleep(common::Millis{20});
    handler_done.store(true);
  });
  ASSERT_TRUE(started.wait_for(std::chrono::seconds{5}));
  loop.wait_until_idle();
  EXPECT_TRUE(handler_done.load());
  EXPECT_EQ(pumped.load(), 2);
  EXPECT_EQ(loop.dispatched(), 3u);
}

TEST(ResponseProbe, MeasuresIdleLoopQuickly) {
  EventLoop loop;
  loop.start();
  ResponseProbe probe(loop, common::Millis{5});
  probe.start();
  common::precise_sleep(common::Millis{60});
  probe.stop();
  loop.wait_until_idle();
  EXPECT_GE(probe.latencies().total_count(), 5u);
  // An idle loop dispatches probes in well under 5ms.
  EXPECT_LT(probe.latencies().percentile(0.5), 5'000'000u);
}

TEST(OpenLoopDriver, AllRequestsComplete) {
  EventLoop loop;
  loop.start();
  OpenLoopDriver::Options opt;
  opt.count = 20;
  opt.rate_hz = 500.0;
  auto result = OpenLoopDriver::run(
      loop, opt,
      [](std::size_t, const CompletionToken& token) { token.complete(); });
  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(result.fired, 20u);
  EXPECT_EQ(result.completed, 20u);
  EXPECT_EQ(result.response.total_count(), 20u);
}

TEST(OpenLoopDriver, AsynchronousCompletionIsMeasured) {
  EventLoop loop;
  loop.start();
  exec::ThreadPoolExecutor pool("w", 2);
  OpenLoopDriver::Options opt;
  opt.count = 10;
  opt.rate_hz = 1000.0;
  auto result = OpenLoopDriver::run(
      loop, opt, [&](std::size_t, const CompletionToken& token) {
        pool.post([token] {
          common::precise_sleep(common::Millis{5});
          token.complete();
        });
      });
  EXPECT_TRUE(result.all_completed);
  // Response time includes the asynchronous 5ms tail. percentile(0.0) is
  // the lower bound of the fastest sample's bucket, so it never overstates.
  EXPECT_GE(result.response.percentile(0.0), 4'000'000u);
}

TEST(OpenLoopDriver, CompletionTokenIsIdempotent) {
  EventLoop loop;
  loop.start();
  OpenLoopDriver::Options opt;
  opt.count = 5;
  opt.rate_hz = 1000.0;
  auto result = OpenLoopDriver::run(
      loop, opt, [](std::size_t, const CompletionToken& token) {
        token.complete();
        token.complete();  // second call ignored
      });
  EXPECT_EQ(result.completed, 5u);
}

TEST(OpenLoopDriver, PoissonArrivalsStillCountEverything) {
  EventLoop loop;
  loop.start();
  OpenLoopDriver::Options opt;
  opt.count = 30;
  opt.rate_hz = 2000.0;
  opt.poisson = true;
  auto result = OpenLoopDriver::run(
      loop, opt,
      [](std::size_t, const CompletionToken& token) { token.complete(); });
  EXPECT_TRUE(result.all_completed);
  EXPECT_EQ(result.completed, 30u);
}

TEST(EventLoop, StopPublishesCounters) {
  EventLoop loop("publish_edt");
  loop.start();
  for (int i = 0; i < 5; ++i) loop.post([] {});
  std::vector<exec::Task> batch;
  for (int i = 0; i < 3; ++i) batch.emplace_back([] {});
  loop.post_batch(batch);
  loop.wait_until_idle();
  loop.stop();
  EXPECT_EQ(loop.dispatched(), 8u);
  const auto rows = common::Tracer::instance().counters();
  const std::pair<const char*, std::uint64_t> expected[] = {
      {"publish_edt.dispatched", loop.dispatched()},
      {"publish_edt.batch_posts", loop.batch_posts()},
  };
  for (const auto& [name, value] : expected) {
    const auto it = rows.find(name);
    ASSERT_NE(it, rows.end()) << name;
    EXPECT_EQ(it->second, value) << name;
  }
}

}  // namespace
}  // namespace evmp::event
