#include "forkjoin/team_pool.hpp"

#include <algorithm>
#include <utility>

namespace evmp::fj {

TeamPool& TeamPool::instance() {
  // Leaked on purpose (see header): leases unwinding during late static
  // teardown must find a live pool, and a pool destructor would join
  // helper threads at exit.
  static TeamPool* pool = new TeamPool();
  return *pool;
}

TeamPool::Lease TeamPool::lease(int width) {
  if (width < 1) width = 1;
  counters_.add(&TeamPoolStats::leases_granted);
  governor_.on_lease();  // every lease is a running region: a load signal
  Bucket& bucket = bucket_for(width);
  {
    std::unique_lock lk(bucket.mu, std::try_to_lock);
    if (!lk.owns_lock()) {
      counters_.add(&TeamPoolStats::lease_contentions);
      lk.lock();
    }
    // Direct-mapped buckets hold one width; the overflow bucket (> 64)
    // mixes widths and needs an exact-match scan.
    auto& teams = bucket.teams;
    if (width <= kMaxBucketWidth) {
      if (!teams.empty()) {
        std::unique_ptr<Team> team = std::move(teams.back());
        teams.pop_back();
        idle_total_.fetch_sub(1, std::memory_order_relaxed);
        return Lease(this, std::move(team));
      }
    } else {
      for (auto it = teams.begin(); it != teams.end(); ++it) {
        if ((*it)->num_threads() == width) {
          std::unique_ptr<Team> team = std::move(*it);
          *it = std::move(teams.back());
          teams.pop_back();
          idle_total_.fetch_sub(1, std::memory_order_relaxed);
          return Lease(this, std::move(team));
        }
      }
    }
  }
  // Miss: construct outside the lock (Team's constructor spawns helper
  // threads; holding the bucket lock across that would serialise every
  // concurrent first-touch lease of this width).
  counters_.add(&TeamPoolStats::teams_created);
  return Lease(this, std::make_unique<Team>(width));
}

TeamPool::Lease TeamPool::lease_adaptive(int hint) {
  const int width = governor_.decide(hint);
  if (governor_.decay_due()) {
    // Load has had kDecayPeriod leases to re-peak the estimate; anything
    // the decayed floor no longer covers is a stale burst remnant whose
    // helper threads can be released.
    trim(governor_.decay());
  }
  return lease(width);
}

void TeamPool::give_back(std::unique_ptr<Team> team) {
  governor_.on_release();
  Bucket& bucket = bucket_for(team->num_threads());
  std::scoped_lock lk(bucket.mu);
  bucket.teams.push_back(std::move(team));
  idle_total_.fetch_add(1, std::memory_order_relaxed);
}

void TeamPool::trim(std::size_t floor) {
  if (idle_total_.load(std::memory_order_relaxed) <= floor) return;
  std::vector<std::unique_ptr<Team>> drained;
  // Walk widest-first: wide teams pin the most helper threads per slot.
  // The overflow bucket (index 0) holds the widest teams of all, then the
  // direct-mapped buckets from kMaxBucketWidth down to 1.
  for (std::size_t step = 0; step <= static_cast<std::size_t>(kMaxBucketWidth);
       ++step) {
    const std::size_t index =
        step == 0 ? 0 : static_cast<std::size_t>(kMaxBucketWidth) + 1 - step;
    Bucket& bucket = buckets_[index];
    std::scoped_lock lk(bucket.mu);
    while (!bucket.teams.empty() &&
           idle_total_.load(std::memory_order_relaxed) > floor) {
      drained.push_back(std::move(bucket.teams.back()));
      bucket.teams.pop_back();
      idle_total_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (idle_total_.load(std::memory_order_relaxed) <= floor) break;
  }
  // Teams (and their helper-thread joins) die outside the locks.
}

namespace {
/// The pool's gauges, read at publish time (they also fall, so they are
/// not Counters fields).
struct TeamPoolGauges {
  std::uint64_t leased_high_water = 0;
  std::uint64_t idle_teams = 0;

  static constexpr common::CounterField<TeamPoolGauges> kFields[] = {
      {"leased_high_water", &TeamPoolGauges::leased_high_water},
      {"idle_teams", &TeamPoolGauges::idle_teams},
  };
};
}  // namespace

void TeamPool::publish_counters(std::string_view prefix) const {
  counters_.publish(prefix);
  common::Counters<TeamPoolGauges>::publish(
      prefix, {static_cast<std::uint64_t>(std::max(0, leased_high_water())),
               idle_count()});
  governor_.publish_counters(prefix);
}

}  // namespace evmp::fj
