// Property sweep: every scheduling mode against every executor kind that
// can back a virtual target, under burst submission. Asserts the three
// invariants that must hold for any (mode, backing) combination:
//   1. every block runs exactly once;
//   2. the join point (if the mode has one) observes all effects;
//   3. results equal the directives-disabled sequential execution.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "common/sync.hpp"
#include "core/runtime.hpp"
#include "core/target.hpp"
#include "event/event_loop.hpp"

namespace evmp {
namespace {

enum class Backing { kCentralPool, kStealingPool, kSerial, kEdt };

struct MatrixCase {
  Backing backing;
  Async mode;
};

std::string backing_name(Backing b) {
  switch (b) {
    case Backing::kCentralPool: return "central";
    case Backing::kStealingPool: return "stealing";
    case Backing::kSerial: return "serial";
    case Backing::kEdt: return "edt";
  }
  return "?";
}

class RuntimeMatrix : public ::testing::TestWithParam<MatrixCase> {
 protected:
  void SetUp() override {
    edt_.start();
    rt_.register_edt("edt", edt_);
    rt_.create_worker("central", 3);
    rt_.create_stealing_worker("stealing", 3);
    rt_.create_worker("serial", 1);
  }
  void TearDown() override { rt_.clear(); }

  std::string target_for(Backing b) { return backing_name(b); }

  Runtime rt_;
  event::EventLoop edt_{"edt"};
};

TEST_P(RuntimeMatrix, BurstRunsEveryBlockExactlyOnce) {
  const auto& p = GetParam();
  const std::string tname = target_for(p.backing);
  constexpr int kBlocks = 64;
  std::vector<std::atomic<int>> hits(kBlocks);

  std::vector<exec::TaskHandle> handles;
  handles.reserve(kBlocks);
  for (int i = 0; i < kBlocks; ++i) {
    handles.push_back(rt_.invoke_target_block(
        tname, [&hits, i] { hits[static_cast<size_t>(i)].fetch_add(1); },
        p.mode, "matrix"));
  }
  // Join, whatever the mode requires.
  if (p.mode == Async::kNameAs) rt_.wait_tag("matrix");
  for (auto& h : handles) h.wait();

  for (int i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "block " << i;
  }
}

TEST_P(RuntimeMatrix, JoinObservesAllEffects) {
  const auto& p = GetParam();
  if (p.mode == Async::kNowait) {
    GTEST_SKIP() << "nowait has no join point by design";
  }
  const std::string tname = target_for(p.backing);
  long sum = 0;  // unsynchronised: the join must give happens-before
  for (int i = 1; i <= 20; ++i) {
    auto handle = rt_.invoke_target_block(
        tname, [&sum, i] { sum += i; }, p.mode, "join");
    if (p.mode == Async::kNameAs) {
      rt_.wait_tag("join");
    } else {
      handle.wait();
    }
  }
  EXPECT_EQ(sum, 210);
}

TEST_P(RuntimeMatrix, MatchesDisabledSequentialResult) {
  const auto& p = GetParam();
  const std::string tname = target_for(p.backing);
  auto program = [&](std::vector<int>& out) {
    for (int i = 0; i < 10; ++i) {
      auto handle = rt_.invoke_target_block(
          tname, [&out, i] { out.push_back(i * i); }, p.mode, "seq");
      // Serialise submissions so ordering is comparable.
      if (p.mode == Async::kNameAs) {
        rt_.wait_tag("seq");
      } else {
        handle.wait();
      }
    }
  };
  std::vector<int> parallel_result;
  program(parallel_result);
  rt_.set_enabled(false);
  std::vector<int> sequential_result;
  program(sequential_result);
  rt_.set_enabled(true);
  EXPECT_EQ(parallel_result, sequential_result);
}

std::vector<MatrixCase> matrix_cases() {
  std::vector<MatrixCase> cases;
  for (Backing b : {Backing::kCentralPool, Backing::kStealingPool,
                    Backing::kSerial, Backing::kEdt}) {
    for (Async m :
         {Async::kDefault, Async::kNowait, Async::kNameAs, Async::kAwait}) {
      cases.push_back({b, m});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, RuntimeMatrix, ::testing::ValuesIn(matrix_cases()),
    [](const ::testing::TestParamInfo<MatrixCase>& param_info) {
      return backing_name(param_info.param.backing) + "_" +
             std::string(to_string(param_info.param.mode));
    });

}  // namespace
}  // namespace evmp
