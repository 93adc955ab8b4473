// Table I as an automated test: the observable semantics of the four
// scheduling-property-clauses, asserted with coarse timing bounds (the
// bench_table1_modes binary prints the same observations as a table).

#include <gtest/gtest.h>

#include <atomic>

#include "common/clock.hpp"
#include "common/sync.hpp"
#include "core/runtime.hpp"
#include "event/event_loop.hpp"

namespace evmp {
namespace {

struct ModeObservation {
  double encounter_block_ms = 0.0;
  bool continued_before_finish = false;
  std::uint64_t pumped = 0;
};

class Table1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    edt_.start();
    rt_.register_edt("edt", edt_);
    rt_.create_worker("worker", 2);
  }
  void TearDown() override { rt_.clear(); }

  /// Observe one 40ms block under `mode`, encountered on the EDT with 5
  /// background events queued.
  ModeObservation observe(Async mode) {
    ModeObservation obs;
    common::CountdownLatch done(1);
    // Outlives the handler: modes that pump nothing run the background
    // events after the handler returned (wait_until_idle below joins them).
    std::atomic<std::uint64_t> pumped{0};
    edt_.post([&] {
      for (int i = 0; i < 5; ++i) {
        edt_.post([&pumped] { pumped.fetch_add(1); });
      }
      std::atomic<bool> finished{false};
      const common::Stopwatch sw;
      auto handle = rt_.invoke_target_block(
          "worker",
          [&finished] {
            common::precise_sleep(common::Millis{40});
            finished.store(true);
          },
          mode, "t1");
      obs.encounter_block_ms = sw.elapsed_ms();
      obs.continued_before_finish = !finished.load();
      obs.pumped = pumped.load();
      if (mode == Async::kNameAs) rt_.wait_tag("t1");
      handle.wait();
      done.count_down();
    });
    done.wait();
    edt_.wait_until_idle();
    return obs;
  }

  Runtime rt_;
  event::EventLoop edt_{"edt"};
};

TEST_F(Table1Test, DefaultWaitsAndPumpsNothing) {
  const auto obs = observe(Async::kDefault);
  EXPECT_GE(obs.encounter_block_ms, 38.0);
  EXPECT_FALSE(obs.continued_before_finish);
  EXPECT_EQ(obs.pumped, 0u);  // plain wait: the queue starves
}

TEST_F(Table1Test, NowaitContinuesImmediately) {
  const auto obs = observe(Async::kNowait);
  EXPECT_LT(obs.encounter_block_ms, 20.0);
  EXPECT_TRUE(obs.continued_before_finish);
}

TEST_F(Table1Test, NameAsContinuesImmediately) {
  const auto obs = observe(Async::kNameAs);
  EXPECT_LT(obs.encounter_block_ms, 20.0);
  EXPECT_TRUE(obs.continued_before_finish);
}

TEST_F(Table1Test, AwaitWaitsButPumpsTheQueue) {
  const auto obs = observe(Async::kAwait);
  EXPECT_GE(obs.encounter_block_ms, 38.0);   // continuation after the block
  EXPECT_FALSE(obs.continued_before_finish);
  EXPECT_EQ(obs.pumped, 5u);  // the logical barrier processed other events
}

}  // namespace
}  // namespace evmp
