// Tests for the elastic team-width machinery: WidthGovernor decisions over
// injected signals (deterministic), live lease accounting and decay, and
// TeamPool's adaptive leasing, width-bucketed cache, trim and statistics.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "forkjoin/team_pool.hpp"
#include "forkjoin/width_governor.hpp"

namespace evmp::fj {
namespace {

WidthSignals signals(int active, int cores) {
  WidthSignals s;
  s.active_leases = active;
  s.cores = cores;
  return s;
}

// --- decide() over injected signals ---------------------------------------

TEST(WidthGovernor, LoneRegionGetsFullHint) {
  WidthGovernor gov;
  EXPECT_EQ(gov.decide(8, signals(0, 16)), 8);
}

TEST(WidthGovernor, SaturatedLoadClampsToOne) {
  // Fifty concurrent Figure 9 requests on 16 cores: width collapses to 1.
  WidthGovernor gov;
  EXPECT_EQ(gov.decide(8, signals(50, 16)), 1);
}

TEST(WidthGovernor, MidLoadScalesProportionally) {
  WidthGovernor gov;
  // demand = 7 running + the requester = 8; share = 2*16/8 = 4.
  EXPECT_EQ(gov.decide(8, signals(7, 16)), 4);
}

TEST(WidthGovernor, NonPositiveHintMeansCoreBudget) {
  WidthGovernor gov;
  EXPECT_EQ(gov.decide(0, signals(0, 16)), 16);
  EXPECT_EQ(gov.decide(-1, signals(0, 16)), 16);
}

TEST(WidthGovernor, WidthNeverBelowOne) {
  WidthGovernor gov;
  EXPECT_EQ(gov.decide(1, signals(1000, 1)), 1);
  EXPECT_EQ(gov.decide(0, signals(1000, 1)), 1);
}

TEST(WidthGovernor, SixteenConcurrentOnSixteenCoresKeepHeadroom) {
  // The kOversubscription=2 headroom: demand == cores still grants 2-wide
  // teams instead of collapsing to sequential.
  WidthGovernor gov;
  EXPECT_EQ(gov.decide(8, signals(15, 16)), 2);
}

TEST(WidthGovernor, HistogramsRecordRequestedAndGranted) {
  WidthGovernor gov;
  gov.decide(8, signals(0, 16));   // requested 8, granted 8
  gov.decide(8, signals(50, 16));  // requested 8, granted 1
  const auto requested = gov.requested_histogram();
  const auto granted = gov.granted_histogram();
  // bucket 3 holds widths 5-8; bucket 0 holds width 1.
  EXPECT_EQ(requested[3], 2u);
  EXPECT_EQ(granted[3], 1u);
  EXPECT_EQ(granted[0], 1u);
}

TEST(WidthGovernor, SetCoresOverridesBudget) {
  WidthGovernor gov;
  gov.set_cores(4);
  EXPECT_EQ(gov.cores(), 4);
  EXPECT_EQ(gov.decide(8, signals(0, 0)), 8);  // 2*4 >= 8
  EXPECT_EQ(gov.decide(8, signals(7, 0)), 1);  // 2*4/8 = 1
  gov.set_cores(0);
  EXPECT_GE(gov.cores(), 1);  // back to hardware_concurrency
}

// --- live lease accounting and decay --------------------------------------

TEST(WidthGovernor, LeaseAccountingTracksActiveAndHighWater) {
  WidthGovernor gov;
  EXPECT_EQ(gov.active(), 0);
  gov.on_lease();
  gov.on_lease();
  EXPECT_EQ(gov.active(), 2);
  EXPECT_EQ(gov.high_water(), 2);
  gov.on_release();
  EXPECT_EQ(gov.active(), 1);
  EXPECT_EQ(gov.high_water(), 2);  // monotone
  gov.on_release();
}

TEST(WidthGovernor, DecayDueEveryPeriod) {
  WidthGovernor gov;
  for (std::uint32_t i = 1; i < WidthGovernor::kDecayPeriod; ++i) {
    EXPECT_FALSE(gov.decay_due()) << "call " << i;
  }
  EXPECT_TRUE(gov.decay_due());
  EXPECT_FALSE(gov.decay_due());  // counter reset
}

TEST(WidthGovernor, BurstEstimateDecaysToOneNotZero) {
  WidthGovernor gov;
  for (int i = 0; i < 10; ++i) gov.on_lease();
  for (int i = 0; i < 10; ++i) gov.on_release();
  EXPECT_EQ(gov.decayed_high_water(), 10);
  // Halves toward current activity (0), rounding up: 10→5→3→2→1→1. The
  // floor never reaches 0 — a live adaptive load keeps one warm team.
  std::size_t prev = 10;
  for (int i = 0; i < 8; ++i) {
    const std::size_t floor = gov.decay();
    EXPECT_LE(floor, prev);
    EXPECT_GE(floor, 1u);
    prev = floor;
  }
  EXPECT_EQ(prev, 1u);
}

TEST(WidthGovernor, SustainedLoadKeepsEstimate) {
  WidthGovernor gov;
  for (int i = 0; i < 6; ++i) gov.on_lease();
  EXPECT_EQ(gov.decay(), 6u);  // current activity holds the floor up
  EXPECT_EQ(gov.decay(), 6u);
  for (int i = 0; i < 6; ++i) gov.on_release();
}

// --- TeamPool adaptive leasing --------------------------------------------

TEST(TeamPoolAdaptive, LoneAdaptiveLeaseGetsFullHint) {
  TeamPool pool;
  pool.governor().set_cores(16);
  auto lease = pool.lease_adaptive(8);
  ASSERT_TRUE(lease);
  EXPECT_EQ(lease->num_threads(), 8);
}

TEST(TeamPoolAdaptive, ConcurrentLoadNarrowsAdaptiveLeases) {
  TeamPool pool;
  pool.governor().set_cores(4);
  // Seven regions already running on 4 cores: demand 8, share 2*4/8 = 1.
  std::vector<TeamPool::Lease> running;
  running.reserve(7);
  for (int i = 0; i < 7; ++i) running.push_back(pool.lease(1));
  auto narrow = pool.lease_adaptive(8);
  EXPECT_EQ(narrow->num_threads(), 1);
}

TEST(TeamPoolAdaptive, HintZeroMeansCoreBudget) {
  TeamPool pool;
  pool.governor().set_cores(3);
  auto lease = pool.lease_adaptive(0);
  EXPECT_EQ(lease->num_threads(), 3);
}

TEST(TeamPoolAdaptive, AdaptiveLeasesReuseCachedTeams) {
  TeamPool pool;
  pool.governor().set_cores(16);
  for (int i = 0; i < 200; ++i) {
    auto lease = pool.lease_adaptive(4);
    EXPECT_EQ(lease->num_threads(), 4);
  }
  // Sequential adaptive load: one team, reused; the decay/trim cycles
  // (every kDecayPeriod leases) must not evict the warm team.
  EXPECT_EQ(pool.teams_created(), 1u);
  EXPECT_EQ(pool.idle_count(), 1u);
}

TEST(TeamPoolAdaptive, AdaptiveWidthIsRunnable) {
  TeamPool pool;
  pool.governor().set_cores(8);
  auto lease = pool.lease_adaptive(4);
  std::atomic<int> ran{0};
  lease->parallel([&](int, int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), lease->num_threads());
}

// --- trim / idle accounting / stats ---------------------------------------

TEST(TeamPoolTrim, TrimsDownToFloor) {
  TeamPool pool;
  { auto a = pool.lease(2); auto b = pool.lease(3); auto c = pool.lease(4); }
  EXPECT_EQ(pool.idle_count(), 3u);
  pool.trim(1);
  EXPECT_EQ(pool.idle_count(), 1u);
  pool.trim(0);
  EXPECT_EQ(pool.idle_count(), 0u);
}

TEST(TeamPoolTrim, TrimIsNoopAtOrBelowFloor) {
  TeamPool pool;
  { auto a = pool.lease(2); }
  const auto created = pool.teams_created();
  pool.trim(1);
  pool.trim(5);
  EXPECT_EQ(pool.idle_count(), 1u);
  // The kept team is still a cache hit.
  { auto again = pool.lease(2); }
  EXPECT_EQ(pool.teams_created(), created);
}

TEST(TeamPoolTrim, WidestTeamsDropFirst) {
  TeamPool pool;
  { auto narrow = pool.lease(2); auto wide = pool.lease(8); }
  EXPECT_EQ(pool.idle_count(), 2u);
  pool.trim(1);  // the width-8 team pins more helpers: it goes first
  EXPECT_EQ(pool.idle_count(), 1u);
  const auto created = pool.teams_created();
  { auto narrow = pool.lease(2); }
  EXPECT_EQ(pool.teams_created(), created);  // width 2 survived
  { auto wide = pool.lease(8); }
  EXPECT_EQ(pool.teams_created(), created + 1);  // width 8 was trimmed
}

TEST(TeamPoolTrim, LeasedTeamsAreUnaffected) {
  TeamPool pool;
  auto held = pool.lease(3);
  pool.trim(0);
  EXPECT_EQ(pool.active_leases(), 1);
  std::atomic<int> ran{0};
  held->parallel([&](int, int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
}

TEST(TeamPoolStats, ActiveAndHighWaterTrackLeases) {
  TeamPool pool;
  EXPECT_EQ(pool.active_leases(), 0);
  {
    auto a = pool.lease(2);
    auto b = pool.lease(2);
    EXPECT_EQ(pool.active_leases(), 2);
    EXPECT_EQ(pool.leased_high_water(), 2);
  }
  EXPECT_EQ(pool.active_leases(), 0);
  EXPECT_EQ(pool.leased_high_water(), 2);  // monotone
}

TEST(TeamPoolStats, SequentialLeasesNeverContend) {
  TeamPool pool;
  for (int i = 0; i < 50; ++i) { auto lease = pool.lease(2); }
  EXPECT_EQ(pool.lease_contentions(), 0u);
}

TEST(TeamPoolStats, OverflowWidthsMatchExactly) {
  // Widths beyond the direct-mapped buckets share the overflow bucket but
  // must still lease by exact width.
  TeamPool pool;
  { auto a = pool.lease(70); auto b = pool.lease(80); }
  EXPECT_EQ(pool.idle_count(), 2u);
  {
    auto b = pool.lease(80);
    EXPECT_EQ(b->num_threads(), 80);
  }
  EXPECT_EQ(pool.teams_created(), 2u);  // both leases were cache hits
}

TEST(TeamPoolStats, ConcurrentAdaptiveLeasesStayExclusive) {
  TeamPool pool;
  pool.governor().set_cores(4);
  std::atomic<int> total{0};
  std::vector<std::thread> users;
  users.reserve(4);
  for (int u = 0; u < 4; ++u) {
    users.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        auto lease = pool.lease_adaptive(4);
        const int width = lease->num_threads();
        EXPECT_GE(width, 1);
        EXPECT_LE(width, 4);
        std::atomic<int> ran{0};
        lease->parallel([&](int, int) { ran.fetch_add(1); });
        EXPECT_EQ(ran.load(), width);
        total.fetch_add(1);
      }
    });
  }
  for (auto& t : users) t.join();
  EXPECT_EQ(total.load(), 200);
  EXPECT_EQ(pool.active_leases(), 0);
  EXPECT_LE(pool.leased_high_water(), 4);
}

}  // namespace
}  // namespace evmp::fj
