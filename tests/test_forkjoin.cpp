// Unit + property tests for the fork-join runtime: Team, barrier, critical,
// schedules and reductions. Parameterized sweeps assert the worksharing
// partition property (every index exactly once) for every schedule/chunk/
// team-size combination.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/tracing.hpp"
#include "forkjoin/parallel_for.hpp"
#include "forkjoin/team.hpp"
#include "forkjoin/team_pool.hpp"

namespace evmp::fj {
namespace {

TEST(Team, AllMembersRun) {
  Team team(4);
  std::vector<std::atomic<int>> hits(4);
  team.parallel([&](int tid, int nth) {
    EXPECT_EQ(nth, 4);
    hits[static_cast<size_t>(tid)].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Team, MasterIsTheCallingThread) {
  Team team(3);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> master_is_caller{false};
  team.parallel([&](int tid, int) {
    if (tid == 0) {
      master_is_caller.store(std::this_thread::get_id() == caller);
    }
  });
  // Fork-join: the encountering thread participates as thread 0.
  EXPECT_TRUE(master_is_caller.load());
}

TEST(Team, SingleThreadTeamRunsInline) {
  Team team(1);
  const auto caller = std::this_thread::get_id();
  bool inline_run = false;
  team.parallel([&](int tid, int nth) {
    EXPECT_EQ(tid, 0);
    EXPECT_EQ(nth, 1);
    inline_run = std::this_thread::get_id() == caller;
  });
  EXPECT_TRUE(inline_run);
}

TEST(Team, ReusableAcrossRegions) {
  Team team(3);
  std::atomic<int> total{0};
  for (int r = 0; r < 20; ++r) {
    team.parallel([&](int, int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 60);
  EXPECT_EQ(team.regions(), 20u);
}

TEST(Team, ExceptionRethrownAtJoin) {
  Team team(3);
  EXPECT_THROW(team.parallel([](int tid, int) {
    if (tid == 1) throw std::runtime_error("member failure");
  }),
               std::runtime_error);
  // The team survives and remains usable.
  std::atomic<int> count{0};
  team.parallel([&](int, int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(Team, ExceptionOnSingleThreadTeam) {
  Team team(1);
  EXPECT_THROW(
      team.parallel([](int, int) { throw std::logic_error("solo"); }),
      std::logic_error);
}

TEST(Team, BarrierSynchronisesPhases) {
  Team team(4);
  std::atomic<int> phase1{0};
  std::atomic<bool> order_violated{false};
  for (int r = 0; r < 10; ++r) {
    phase1.store(0);
    team.parallel([&](int, int nth) {
      phase1.fetch_add(1);
      team.barrier();
      // After the barrier every member must observe all phase-1 arrivals.
      if (phase1.load() != nth) order_violated.store(true);
    });
  }
  EXPECT_FALSE(order_violated.load());
}

TEST(Team, RepeatedBarriersDoNotDeadlock) {
  Team team(3);
  std::atomic<int> count{0};
  team.parallel([&](int, int) {
    for (int i = 0; i < 50; ++i) {
      team.barrier();
      count.fetch_add(1);
    }
  });
  EXPECT_EQ(count.load(), 150);
}

TEST(Team, CriticalIsMutuallyExclusive) {
  Team team(4);
  int unprotected = 0;  // only touched inside critical
  team.parallel([&](int, int) {
    for (int i = 0; i < 1000; ++i) {
      team.critical([&] { ++unprotected; });
    }
  });
  EXPECT_EQ(unprotected, 4000);
}

TEST(Team, IntrospectionInsideRegion) {
  EXPECT_EQ(thread_num(), 0);
  EXPECT_EQ(num_threads(), 1);
  EXPECT_FALSE(in_parallel());
  Team team(3);
  std::vector<std::atomic<int>> seen(3);
  team.parallel([&](int tid, int nth) {
    EXPECT_TRUE(in_parallel());
    EXPECT_EQ(thread_num(), tid);
    EXPECT_EQ(num_threads(), nth);
    seen[static_cast<size_t>(thread_num())].fetch_add(1);
  });
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
  EXPECT_FALSE(in_parallel());
  EXPECT_EQ(num_threads(), 1);
}

TEST(Team, IntrospectionRestoredAfterNestedTeam) {
  Team outer(2);
  outer.parallel([&](int tid, int) {
    if (tid == 0) {
      Team inner(3);
      inner.parallel([&](int itid, int inth) {
        EXPECT_EQ(thread_num(), itid);
        EXPECT_EQ(num_threads(), inth);
      });
      // Back in the outer region: context restored.
      EXPECT_EQ(thread_num(), 0);
      EXPECT_EQ(num_threads(), 2);
    }
  });
}

TEST(Team, HelperThreadCounterGrows) {
  const auto before = total_helper_threads_created();
  { Team team(5); }
  EXPECT_EQ(total_helper_threads_created(), before + 4);
}

TEST(ParallelFor, ComputesEveryIndex) {
  Team team(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(team, 0, 1000, [&](long i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  Team team(2);
  std::atomic<int> calls{0};
  parallel_for(team, 5, 5, [&](long) { calls.fetch_add(1); });
  parallel_for(team, 7, 3, [&](long) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelReduce, SumMatchesSequential) {
  Team team(3);
  const long n = 10'000;
  const auto sum = parallel_reduce(
      team, 0, n, 0L, [](long a, long b) { return a + b; },
      [](long i) { return i; });
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(ParallelReduce, MaxReduction) {
  Team team(4);
  const auto max = parallel_reduce(
      team, 0, 1000, -1L, [](long a, long b) { return a > b ? a : b; },
      [](long i) { return (i * 37) % 1000; });
  EXPECT_EQ(max, 999);
}

TEST(ParallelReduce, WorksUnderDynamicSchedule) {
  Team team(3);
  const auto sum = parallel_reduce(
      team, 0, 1234, 0L, [](long a, long b) { return a + b; },
      [](long i) { return i; }, Schedule::kDynamic, 7);
  EXPECT_EQ(sum, 1234L * 1233 / 2);
}

// ---- partition property sweep -------------------------------------------

struct ScheduleCase {
  Schedule sched;
  long chunk;
  int team_size;
  long range;
};

class SchedulePartition : public ::testing::TestWithParam<ScheduleCase> {};

TEST_P(SchedulePartition, EveryIndexExactlyOnce) {
  const auto& p = GetParam();
  Team team(p.team_size);
  std::vector<std::atomic<int>> hits(static_cast<size_t>(p.range));
  parallel_ranges(
      team, 0, p.range,
      [&](int tid, long lo, long hi) {
        EXPECT_GE(tid, 0);
        EXPECT_LT(tid, p.team_size);
        EXPECT_LT(lo, hi);
        for (long i = lo; i < hi; ++i) {
          hits[static_cast<size_t>(i)].fetch_add(1);
        }
      },
      p.sched, p.chunk);
  for (long i = 0; i < p.range; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

std::string case_name(const ::testing::TestParamInfo<ScheduleCase>& info) {
  const auto& p = info.param;
  return std::string(to_string(p.sched)) + "_c" + std::to_string(p.chunk) +
         "_t" + std::to_string(p.team_size) + "_n" + std::to_string(p.range);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulePartition,
    ::testing::Values(
        ScheduleCase{Schedule::kStatic, 0, 1, 100},
        ScheduleCase{Schedule::kStatic, 0, 4, 100},
        ScheduleCase{Schedule::kStatic, 0, 4, 3},   // fewer items than team
        ScheduleCase{Schedule::kStatic, 7, 4, 100},
        ScheduleCase{Schedule::kStatic, 1, 3, 10},
        ScheduleCase{Schedule::kDynamic, 0, 4, 100},
        ScheduleCase{Schedule::kDynamic, 5, 4, 103},
        ScheduleCase{Schedule::kDynamic, 64, 2, 100},  // chunk > range
        ScheduleCase{Schedule::kGuided, 0, 4, 100},
        ScheduleCase{Schedule::kGuided, 8, 3, 1000},
        ScheduleCase{Schedule::kGuided, 1, 2, 7},
        ScheduleCase{Schedule::kGuided, 16, 4, 17},   // chunk ~ range
        ScheduleCase{Schedule::kGuided, 64, 2, 10},   // chunk > range
        ScheduleCase{Schedule::kGuided, 0, 8, 10000}),
    case_name);

TEST(ParallelRanges, GuidedClaimsNeverExceedBounds) {
  // Regression: the guided schedule used to fetch_add each exiting thread's
  // chunk past `hi`, overshooting the shared counter on every loop. With
  // the CAS-clamped claim every assigned range must sit inside [lo, hi)
  // and cover the range exactly — even when run back-to-back many times
  // (the creep-toward-overflow scenario).
  Team team(4);
  for (int round = 0; round < 50; ++round) {
    constexpr long kLo = 0;
    constexpr long kHi = 497;
    std::atomic<long> covered{0};
    std::atomic<long> max_hi{kLo};
    parallel_ranges(
        team, kLo, kHi,
        [&](int, long lo, long hi) {
          EXPECT_GE(lo, kLo);
          EXPECT_LE(hi, kHi);
          EXPECT_LT(lo, hi);
          covered.fetch_add(hi - lo);
          long seen = max_hi.load();
          while (hi > seen && !max_hi.compare_exchange_weak(seen, hi)) {
          }
        },
        Schedule::kGuided, 3);
    EXPECT_EQ(covered.load(), kHi - kLo);  // exact partition, no overshoot
    EXPECT_EQ(max_hi.load(), kHi);
  }
}

TEST(ParallelReduce, WideTeamFallsBackToHeapSlots) {
  // Teams wider than the 16 inline SBO slots take the vector path; the
  // result must be identical.
  Team team(18);
  const auto sum = parallel_reduce(
      team, 0, 5000, 0L, [](long a, long b) { return a + b; },
      [](long i) { return i; }, Schedule::kDynamic, 16);
  EXPECT_EQ(sum, 5000L * 4999 / 2);
}

// ---- TeamPool -------------------------------------------------------------

TEST(TeamPool, LeaseReusesReturnedTeams) {
  TeamPool pool;
  const auto created_before = pool.teams_created();
  {
    auto lease = pool.lease(3);
    ASSERT_TRUE(lease);
    EXPECT_EQ(lease->num_threads(), 3);
    std::atomic<int> ran{0};
    lease->parallel([&](int, int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 3);
  }  // team returns to the pool here
  EXPECT_EQ(pool.idle_count(), 1u);
  {
    auto lease = pool.lease(3);
    EXPECT_EQ(pool.idle_count(), 0u);  // cache hit, not a new team
  }
  EXPECT_EQ(pool.teams_created(), created_before + 1);
  EXPECT_EQ(pool.leases_granted(), 2u);
}

TEST(TeamPool, DistinctWidthsGetDistinctTeams) {
  TeamPool pool;
  auto a = pool.lease(2);
  auto b = pool.lease(4);
  EXPECT_EQ(a->num_threads(), 2);
  EXPECT_EQ(b->num_threads(), 4);
  EXPECT_EQ(pool.teams_created(), 2u);
}

TEST(TeamPool, ConcurrentLeasesGetExclusiveTeams) {
  // Two threads leasing the same width concurrently must never share a
  // team (Team is not reentrant); the pool grows to the peak concurrency.
  TeamPool pool;
  std::atomic<int> total{0};
  std::vector<std::thread> users;
  users.reserve(4);
  for (int u = 0; u < 4; ++u) {
    users.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        auto lease = pool.lease(2);
        lease->parallel([&](int, int) { total.fetch_add(1); });
      }
    });
  }
  for (auto& t : users) t.join();
  EXPECT_EQ(total.load(), 4 * 25 * 2);
  EXPECT_LE(pool.teams_created(), 4u);  // at most one per concurrent user
  EXPECT_GE(pool.teams_created(), 1u);
}

TEST(TeamPool, PooledRegionsKeepHelperCreationFlat) {
  // The Figure 9 fix, asserted: N pooled regions create helpers once; N
  // fresh teams would create helpers N times.
  TeamPool pool;
  const auto helpers_before = total_helper_threads_created();
  for (int i = 0; i < 100; ++i) {
    auto lease = pool.lease(3);
    lease->parallel([](int, int) {});
  }
  EXPECT_EQ(total_helper_threads_created() - helpers_before, 2u);
  EXPECT_EQ(pool.teams_created(), 1u);
}

TEST(TeamPool, ClearDropsIdleTeams) {
  TeamPool pool;
  { auto lease = pool.lease(2); }
  EXPECT_EQ(pool.idle_count(), 1u);
  pool.clear();
  EXPECT_EQ(pool.idle_count(), 0u);
}

TEST(TeamPool, InstanceIsProcessWide) {
  auto& a = TeamPool::instance();
  auto& b = TeamPool::instance();
  EXPECT_EQ(&a, &b);
}

TEST(TeamPool, PublishCountersMatchesAccessors) {
  TeamPool pool;
  {
    auto a = pool.lease(2);
    auto b = pool.lease(2);
    auto c = pool.lease(3);
  }
  { auto again = pool.lease(2); }
  EXPECT_EQ(pool.teams_created(), 3u);
  EXPECT_EQ(pool.leases_granted(), 4u);
  pool.publish_counters("publish_teams");
  const auto rows = common::Tracer::instance().counters();
  const std::pair<const char*, std::uint64_t> expected[] = {
      {"publish_teams.teams_created", pool.teams_created()},
      {"publish_teams.leases_granted", pool.leases_granted()},
      {"publish_teams.lease_contentions", pool.lease_contentions()},
      {"publish_teams.leased_high_water",
       static_cast<std::uint64_t>(pool.leased_high_water())},
      {"publish_teams.idle_teams", pool.idle_count()},
  };
  for (const auto& [name, value] : expected) {
    const auto it = rows.find(name);
    ASSERT_NE(it, rows.end()) << name;
    EXPECT_EQ(it->second, value) << name;
  }
}

}  // namespace
}  // namespace evmp::fj
