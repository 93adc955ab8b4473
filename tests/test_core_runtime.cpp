// Unit tests for the EventMP runtime: Algorithm 1 (membership fast-path,
// async posting, the four scheduling modes), the virtual-target registry
// (Table II), name-tag groups, ICVs and exception propagation.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/sync.hpp"
#include "core/runtime.hpp"
#include "core/target.hpp"
#include "event/event_loop.hpp"

namespace evmp {
namespace {

/// Fixture with a private Runtime, an EDT and a worker target — the setup
/// the paper's Table II functions produce.
class RuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    edt_.start();
    rt_.register_edt("edt", edt_);
    rt_.create_worker("worker", 2);
    rt_.set_default_target("worker");
  }

  void TearDown() override {
    rt_.clear();  // join workers before the loop dies
  }

  Runtime rt_;
  event::EventLoop edt_{"edt"};
};

TEST_F(RuntimeTest, RegistryResolvesAndReports) {
  EXPECT_TRUE(rt_.has_target("edt"));
  EXPECT_TRUE(rt_.has_target("worker"));
  EXPECT_FALSE(rt_.has_target("nope"));
  EXPECT_EQ(rt_.resolve("worker").concurrency(), 2u);
  EXPECT_EQ(&rt_.resolve("edt"), &edt_);
  EXPECT_THROW(rt_.resolve("nope"), TargetNotFound);
}

TEST_F(RuntimeTest, UnregisterRemovesTarget) {
  rt_.create_worker("tmp", 1);
  EXPECT_TRUE(rt_.has_target("tmp"));
  rt_.unregister("tmp");
  EXPECT_FALSE(rt_.has_target("tmp"));
  rt_.unregister("tmp");  // idempotent
}

TEST_F(RuntimeTest, DefaultModeBlocksUntilCompletion) {
  std::atomic<bool> ran{false};
  auto handle = rt_.invoke_target_block(
      "worker",
      [&] {
        common::precise_sleep(common::Millis{10});
        ran.store(true);
      },
      Async::kDefault);
  // Algorithm 1 line 17: the encountering thread waited.
  EXPECT_TRUE(ran.load());
  EXPECT_TRUE(handle.done());
}

TEST_F(RuntimeTest, NowaitReturnsImmediately) {
  common::ManualResetEvent release;
  std::atomic<bool> ran{false};
  const common::Stopwatch sw;
  auto handle = rt_.invoke_target_block(
      "worker",
      [&] {
        release.wait();
        ran.store(true);
      },
      Async::kNowait);
  // Lines 10-11: returned before the block finished.
  EXPECT_LT(sw.elapsed_ms(), 50.0);
  EXPECT_FALSE(ran.load());
  release.set();
  handle.wait();
  EXPECT_TRUE(ran.load());
}

TEST_F(RuntimeTest, MembershipFastPathRunsInline) {
  // Lines 6-7: a block targeted at the executor the thread already belongs
  // to executes synchronously; the directive is "simply ignored".
  std::atomic<bool> inline_on_worker{false};
  rt_.invoke_target_block(
      "worker",
      [&] {
        const auto worker_thread = std::this_thread::get_id();
        rt_.invoke_target_block(
            "worker",
            [&, worker_thread] {
              inline_on_worker.store(std::this_thread::get_id() ==
                                     worker_thread);
            },
            Async::kNowait);  // even nowait runs inline on membership
      },
      Async::kDefault);
  EXPECT_TRUE(inline_on_worker.load());
  EXPECT_GE(rt_.stats().inline_fast_path, 1u);
}

TEST_F(RuntimeTest, EdtTargetFromEdtRunsInline) {
  std::atomic<int> order{0};
  edt_.invoke_and_wait([&] {
    rt_.invoke_target_block(
        "edt", [&] { order.store(1); }, Async::kNowait);
    // Inline execution means it already happened.
    EXPECT_EQ(order.load(), 1);
  });
}

TEST_F(RuntimeTest, NameAsJoinsAllTaggedBlocks) {
  std::atomic<int> done{0};
  for (int i = 0; i < 5; ++i) {
    rt_.invoke_target_block(
        "worker",
        [&] {
          common::precise_sleep(common::Millis{5});
          done.fetch_add(1);
        },
        Async::kNameAs, "batch");
  }
  rt_.wait_tag("batch");
  // "the encountering thread suspends until all the name-tag ... instances
  // finish" (§III-C).
  EXPECT_EQ(done.load(), 5);
}

TEST_F(RuntimeTest, WaitTagOnUnknownTagReturnsImmediately) {
  const common::Stopwatch sw;
  rt_.wait_tag("never-used");
  EXPECT_LT(sw.elapsed_ms(), 10.0);
}

TEST_F(RuntimeTest, WaitTagCanBeReusedAcrossBatches) {
  std::atomic<int> done{0};
  rt_.invoke_target_block(
      "worker", [&] { done.fetch_add(1); }, Async::kNameAs, "t");
  rt_.wait_tag("t");
  EXPECT_EQ(done.load(), 1);
  rt_.invoke_target_block(
      "worker", [&] { done.fetch_add(1); }, Async::kNameAs, "t");
  rt_.wait_tag("t");
  EXPECT_EQ(done.load(), 2);
}

TEST_F(RuntimeTest, AwaitBlocksCallerButPumpsEdtEvents) {
  std::atomic<int> other_events{0};
  std::atomic<bool> await_returned_after_block{false};
  common::CountdownLatch finished(1);

  edt_.post([&] {
    // Handler A: awaits a worker block. While waiting, the EDT must keep
    // dispatching the events posted below (Algorithm 1 lines 13-16).
    std::atomic<bool> block_done{false};
    rt_.invoke_target_block(
        "worker",
        [&] {
          common::precise_sleep(common::Millis{30});
          block_done.store(true);
        },
        Async::kAwait);
    await_returned_after_block.store(block_done.load());
    finished.count_down();
  });
  for (int i = 0; i < 10; ++i) {
    edt_.post([&] { other_events.fetch_add(1); });
  }
  ASSERT_TRUE(finished.wait_for(std::chrono::seconds{10}));
  EXPECT_TRUE(await_returned_after_block.load());
  // The logical barrier processed the other handlers during the wait.
  EXPECT_EQ(other_events.load(), 10);
  EXPECT_GE(edt_.max_nesting(), 2);
  EXPECT_GE(rt_.stats().await_pumped, 1u);
}

TEST_F(RuntimeTest, AwaitOnWorkerStealsOtherPoolTasks) {
  std::atomic<int> stolen_during_await{0};
  common::CountdownLatch done(1);
  auto& lone = rt_.create_worker("lone", 1);
  rt_.invoke_target_block(
      "lone",
      [&] {
        // Queue extra tasks behind this one on the same single-thread pool
        // (posting directly bypasses the membership fast-path); the await
        // below must pick them up while waiting for "worker".
        std::atomic<int> stolen{0};
        for (int i = 0; i < 3; ++i) {
          lone.post([&] { stolen.fetch_add(1); });
        }
        rt_.invoke_target_block(
            "worker", [] { common::precise_sleep(common::Millis{30}); },
            Async::kAwait);
        stolen_during_await.store(stolen.load());
        done.count_down();
      },
      Async::kNowait);
  ASSERT_TRUE(done.wait_for(std::chrono::seconds{10}));
  // The single "lone" thread was inside the awaiting block the whole time,
  // so only the logical barrier can have run the queued tasks.
  EXPECT_EQ(stolen_during_await.load(), 3);
}

TEST_F(RuntimeTest, AwaitFromForeignThreadJustWaits) {
  std::atomic<bool> ran{false};
  rt_.invoke_target_block(
      "worker",
      [&] {
        common::precise_sleep(common::Millis{10});
        ran.store(true);
      },
      Async::kAwait);
  EXPECT_TRUE(ran.load());
}

/// Spin (bounded) until `pred` holds; false after `limit`.
template <class Pred>
bool eventually(Pred pred, common::Millis limit = common::Millis{5000}) {
  const auto deadline = common::now() + limit;
  while (!pred()) {
    if (common::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds{100});
  }
  return true;
}

TEST_F(RuntimeTest, AwaitParksInsteadOfPolling) {
  // Nothing else is queued on the EDT while it awaits the block: it climbs
  // the spin ladder once, parks, and the block's completion wakes it. The
  // nap loop this replaced woke ~150 times in a 30 ms block. The block
  // stays open until the EDT is seen parked (bounded), so a spin ladder
  // slowed by a loaded host cannot outlast it.
  common::CountdownLatch finished(1);
  rt_.reset_stats();
  edt_.post([&] {
    rt_.invoke_target_block(
        "worker",
        [&] { eventually([&] { return edt_.parked_members() == 1; }); },
        Async::kAwait);
    finished.count_down();
  });
  ASSERT_TRUE(finished.wait_for(std::chrono::seconds{10}));
  const RuntimeStats stats = rt_.stats();
  EXPECT_EQ(stats.awaits, 1u);
  EXPECT_GE(stats.await_parks, 1u);
  EXPECT_LE(stats.await_parks, 3u);
}

TEST_F(RuntimeTest, PostToParkedEdtRunsBeforeTheBlockEnds) {
  // The EDT parks in `await` with an empty queue; an event a foreign
  // thread posts afterwards must wake it and run inside the barrier. The
  // block stays open until that event ran (bounded), so a lost wakeup
  // shows as the event running only after the block.
  std::atomic<bool> posted_ran{false};
  std::atomic<bool> ran_inside_await{false};
  common::CountdownLatch finished(1);
  edt_.post([&] {
    rt_.invoke_target_block(
        "worker",
        [&] { eventually([&] { return posted_ran.load(); }); },
        Async::kAwait);
    ran_inside_await.store(posted_ran.load());
    finished.count_down();
  });
  ASSERT_TRUE(eventually([&] { return edt_.parked_members() == 1; }));
  edt_.post([&] { posted_ran.store(true); });
  ASSERT_TRUE(finished.wait_for(std::chrono::seconds{10}));
  EXPECT_TRUE(ran_inside_await.load());
}

TEST_F(RuntimeTest, DelayedEventFiresDuringAwait) {
  // A parked EDT sets its wake-up deadline to its next timer: a 5 ms
  // post_delayed event fires inside the await. The block stays open until
  // it fired (bounded), so a park that ignored the timer shows as the
  // event firing only after the block.
  std::atomic<std::int64_t> fired_ns{0};
  std::atomic<std::int64_t> block_end_ns{0};
  common::CountdownLatch finished(1);
  edt_.post([&] {
    const auto start = common::now();
    edt_.post_delayed(
        [&, start] { fired_ns.store(common::elapsed_ns(start, common::now())); },
        common::Millis{5});
    rt_.invoke_target_block(
        "worker",
        [&, start] {
          eventually([&] { return fired_ns.load() != 0; });
          block_end_ns.store(common::elapsed_ns(start, common::now()));
        },
        Async::kAwait);
    finished.count_down();
  });
  ASSERT_TRUE(finished.wait_for(std::chrono::seconds{10}));
  EXPECT_GE(fired_ns.load(), 5'000'000);
  EXPECT_LT(fired_ns.load(), block_end_ns.load());
}

/// A lone member of `pool` awaits a remote block that stays open until a
/// task posted to `pool` *after* the member parked has run (bounded):
/// only a post that wakes the parked member can run it in time.
void expect_parked_member_runs_later_post(Runtime& rt, exec::Executor& pool,
                                          std::string_view target) {
  std::atomic<bool> later_ran{false};
  std::atomic<bool> ran_inside_await{false};
  common::CountdownLatch done(1);
  rt.invoke_target_block(
      target,
      [&] {
        rt.invoke_target_block(
            "worker",
            [&] { eventually([&] { return later_ran.load(); }); },
            Async::kAwait);
        ran_inside_await.store(later_ran.load());
        done.count_down();
      },
      Async::kNowait);
  ASSERT_TRUE(eventually([&] { return pool.parked_members() == 1; }));
  pool.post([&] { later_ran.store(true); });
  ASSERT_TRUE(done.wait_for(std::chrono::seconds{10}));
  EXPECT_TRUE(ran_inside_await.load()) << target;
}

TEST_F(RuntimeTest, ParkedPoolMembersRunTasksPostedAfterTheyParked) {
  expect_parked_member_runs_later_post(rt_, rt_.create_worker("lone", 1),
                                       "lone");
  expect_parked_member_runs_later_post(
      rt_, rt_.create_stealing_worker("lone-ws", 1), "lone-ws");
}

TEST_F(RuntimeTest, AwaitDepthIsCappedAndEveryEventCompletes) {
  // Event k's block posts event k+1 and, below the cap, stays open until
  // that event started, so event k+1 runs inside event k's await: event k
  // runs at barrier depth k. Event kCap's await is at the cap, so it parks
  // on its completion alone; the chain unwinds and the remaining events
  // run from the top level.
  constexpr int kCap = Runtime::kMaxAwaitDepth;
  constexpr int kEvents = kCap + 16;
  std::vector<std::atomic<bool>> started(kEvents);
  std::atomic<int> deepest{0};
  common::CountdownLatch all_done(kEvents);
  rt_.reset_stats();
  std::function<void(int)> handler = [&](int k) {
    started[k].store(true);
    const int depth = Runtime::await_depth();
    int seen = deepest.load();
    while (depth > seen && !deepest.compare_exchange_weak(seen, depth)) {
    }
    rt_.invoke_target_block(
        "worker",
        [&, k] {
          if (k + 1 < kEvents) edt_.post([&, k] { handler(k + 1); });
          if (k < kCap) eventually([&] { return started[k + 1].load(); });
        },
        Async::kAwait);
    all_done.count_down();
  };
  edt_.post([&] { handler(0); });
  ASSERT_TRUE(all_done.wait_for(std::chrono::seconds{60}));
  EXPECT_EQ(deepest.load(), kCap);
  EXPECT_LE(edt_.max_nesting(), kCap + 1);
  EXPECT_GE(rt_.stats().await_depth_capped, 1u);
}

TEST_F(RuntimeTest, DisabledRuntimeRunsBlocksInline) {
  rt_.set_enabled(false);
  const auto caller = std::this_thread::get_id();
  std::thread::id observed;
  auto handle = rt_.invoke_target_block(
      "worker", [&] { observed = std::this_thread::get_id(); },
      Async::kNowait);
  rt_.set_enabled(true);
  // "unsupported compilers ... safely ignore the directives": pure
  // sequential execution, already complete.
  EXPECT_EQ(observed, caller);
  EXPECT_FALSE(handle.valid());
  EXPECT_TRUE(handle.done());
}

TEST_F(RuntimeTest, DefaultTargetIcv) {
  EXPECT_EQ(rt_.default_target(), "worker");
  std::atomic<bool> on_worker{false};
  rt_.invoke_default(
      [&] { on_worker.store(rt_.resolve("worker").owns_current_thread()); },
      Async::kDefault);
  EXPECT_TRUE(on_worker.load());
  rt_.set_default_target("edt");
  std::atomic<bool> on_edt{false};
  rt_.invoke_default([&] { on_edt.store(edt_.is_dispatch_thread()); },
                     Async::kDefault);
  EXPECT_TRUE(on_edt.load());
}

TEST_F(RuntimeTest, DefaultModeRethrowsBlockException) {
  EXPECT_THROW(rt_.invoke_target_block(
                   "worker", [] { throw std::runtime_error("bad block"); },
                   Async::kDefault),
               std::runtime_error);
}

TEST_F(RuntimeTest, AwaitRethrowsBlockException) {
  EXPECT_THROW(rt_.invoke_target_block(
                   "worker", [] { throw std::logic_error("await bad"); },
                   Async::kAwait),
               std::logic_error);
}

TEST_F(RuntimeTest, WaitTagRethrowsFirstGroupError) {
  rt_.invoke_target_block(
      "worker", [] { throw std::runtime_error("tagged failure"); },
      Async::kNameAs, "errs");
  rt_.invoke_target_block(
      "worker", [] {}, Async::kNameAs, "errs");
  EXPECT_THROW(rt_.wait_tag("errs"), std::runtime_error);
  // The error is consumed; the tag is reusable afterwards.
  rt_.invoke_target_block("worker", [] {}, Async::kNameAs, "errs");
  EXPECT_NO_THROW(rt_.wait_tag("errs"));
}

TEST_F(RuntimeTest, NowaitExceptionGoesToHook) {
  static std::atomic<int> hits{0};
  hits.store(0);  // static: --gtest_repeat runs this body again
  auto prev = exec::unhandled_exception_hook();
  exec::set_unhandled_exception_hook(
      [](std::string_view, std::exception_ptr) { hits.fetch_add(1); });
  auto handle = rt_.invoke_target_block(
      "worker", [] { throw std::runtime_error("nowait bug"); },
      Async::kNowait);
  while (!handle.done()) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  exec::set_unhandled_exception_hook(prev);
  EXPECT_EQ(hits.load(), 1);
  EXPECT_TRUE(handle.failed());
}

TEST_F(RuntimeTest, StatsCountModes) {
  rt_.reset_stats();
  rt_.invoke_target_block("worker", [] {}, Async::kDefault);
  rt_.invoke_target_block("worker", [] {}, Async::kAwait);
  auto handle = rt_.invoke_target_block("worker", [] {}, Async::kNowait);
  handle.wait();
  const auto stats = rt_.stats();
  EXPECT_EQ(stats.posted, 3u);
  EXPECT_EQ(stats.default_waits, 1u);
  EXPECT_EQ(stats.awaits, 1u);
}

TEST_F(RuntimeTest, FluentTargetRefModes) {
  std::atomic<int> value{0};
  rt_.target("worker").run([&] { value.store(1); });
  EXPECT_EQ(value.load(), 1);
  auto handle = rt_.target("worker").nowait([&] { value.store(2); });
  handle.wait();
  EXPECT_EQ(value.load(), 2);
  rt_.target("worker").name_as("f", [&] { value.store(3); });
  rt_.wait_tag("f");
  EXPECT_EQ(value.load(), 3);
  rt_.target("worker").await([&] { value.store(4); });
  EXPECT_EQ(value.load(), 4);
}

TEST_F(RuntimeTest, IfClauseFalseRunsInline) {
  const auto caller = std::this_thread::get_id();
  std::thread::id observed;
  auto handle = rt_.target("worker").if_clause(false).nowait(
      [&] { observed = std::this_thread::get_id(); });
  EXPECT_EQ(observed, caller);
  EXPECT_FALSE(handle.valid());
}

TEST_F(RuntimeTest, IfClauseTrueDispatches) {
  std::atomic<bool> on_worker{false};
  rt_.target("worker").if_clause(true).run(
      [&] { on_worker.store(rt_.resolve("worker").owns_current_thread()); });
  EXPECT_TRUE(on_worker.load());
}

TEST_F(RuntimeTest, DeviceTargetRegistersAndRuns) {
  auto& dev = rt_.register_device(0);
  EXPECT_TRUE(rt_.has_target("device:0"));
  std::atomic<bool> on_device{false};
  rt_.invoke_target_block(
      "device:0", [&] { on_device.store(dev.owns_current_thread()); },
      Async::kDefault);
  EXPECT_TRUE(on_device.load());
  EXPECT_EQ(dev.kernels_launched(), 1u);
}

TEST_F(RuntimeTest, NestedEdtUpdateFromWorkerBlock) {
  // The Figure 6 pattern: worker block posts GUI work back to the EDT.
  std::atomic<bool> gui_on_edt{false};
  common::CountdownLatch done(1);
  rt_.target("worker").nowait([&] {
    rt_.target("edt").nowait([&] {
      gui_on_edt.store(edt_.is_dispatch_thread());
      done.count_down();
    });
  });
  ASSERT_TRUE(done.wait_for(std::chrono::seconds{10}));
  EXPECT_TRUE(gui_on_edt.load());
}

TEST_F(RuntimeTest, DeviceTransferHelpersAccountOnDevices) {
  auto& dev = rt_.register_device(3);
  // Helpers route through the *global* runtime; register there too.
  rt().register_executor("device:3", dev);
  device_transfer_to("device:3", 1000);
  device_transfer_from("device:3", 500);
  EXPECT_EQ(dev.bytes_to_device(), 1000u);
  EXPECT_EQ(dev.bytes_from_device(), 500u);
  rt().unregister("device:3");
}

TEST_F(RuntimeTest, DeviceTransferIsNoopForVirtualTargets) {
  // Virtual targets share the host memory (§III-B): map clauses copy
  // nothing.
  rt().register_executor("not-a-device", rt_.resolve("worker"));
  EXPECT_NO_THROW(device_transfer_to("not-a-device", 4096));
  EXPECT_NO_THROW(device_transfer_from("not-a-device", 4096));
  rt().unregister("not-a-device");
}

TEST_F(RuntimeTest, StealingWorkerRunsFigure6Flow) {
  rt_.create_stealing_worker("ws", 2);
  std::atomic<int> order{0};
  common::CountdownLatch done(1);
  edt_.post([&] {
    rt_.target("ws").nowait([&] {
      order.fetch_add(1);  // S1/S3
      rt_.target("edt").nowait([&] {
        order.fetch_add(10);  // S4 on the EDT
        done.count_down();
      });
    });
  });
  ASSERT_TRUE(done.wait_for(std::chrono::seconds{10}));
  EXPECT_EQ(order.load(), 11);
}

TEST_F(RuntimeTest, AwaitHandleCompletedHandleReturnsImmediately) {
  const common::Stopwatch sw;
  rt_.await_handle(exec::TaskHandle{});  // empty == done
  auto handle = rt_.invoke_target_block("worker", [] {}, Async::kNowait);
  handle.wait();
  rt_.await_handle(handle);
  EXPECT_LT(sw.elapsed_ms(), 50.0);
}

TEST_F(RuntimeTest, AwaitHandleRethrows) {
  auto handle = rt_.invoke_target_block(
      "worker", [] { throw std::runtime_error("late failure"); },
      Async::kNameAs, "ah");
  EXPECT_THROW(
      {
        rt_.await_handle(handle);
      },
      std::runtime_error);
  // Clear the tag group's stored copy of the error too.
  EXPECT_THROW(rt_.wait_tag("ah"), std::runtime_error);
}

TEST(RuntimeStandalone, GlobalRuntimeIsSingleton) {
  EXPECT_EQ(&rt(), &rt());
}

TEST(RuntimeStandalone, RegisterExecutorNonOwning) {
  Runtime runtime;
  exec::ThreadPoolExecutor pool("ext", 1);
  runtime.register_executor("ext", pool);
  std::atomic<bool> ran{false};
  runtime.invoke_target_block("ext", [&] { ran.store(true); },
                              Async::kDefault);
  EXPECT_TRUE(ran.load());
  runtime.clear();
  // The pool is still alive: it was not owned by the runtime.
  common::CountdownLatch latch(1);
  pool.post([&] { latch.count_down(); });
  EXPECT_TRUE(latch.wait_for(std::chrono::seconds{5}));
}

}  // namespace
}  // namespace evmp
