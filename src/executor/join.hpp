#pragma once
// The one join loop: `await`, wait(name-tag) and every hard wait on a
// completion run it (DESIGN.md §9.2).
//
// Until the awaited condition holds, a member thread runs queued tasks of
// its own executor (the logical barrier of Algorithm 1, lines 13-16),
// climbs the common::SpinWait pause/yield ladder, and then parks on its
// thread's common::Parker. It wakes when any of three sources notifies
// the parker:
//
//   * the awaited object's setter (CompletionState::set_done/
//     set_exception, the last TagGroup::leave) — the parker is published
//     in the object by `watch()`;
//   * a post to the helping executor — the parker is registered as an
//     Executor::ParkedMember for the duration of the park;
//   * the helping executor's next timer falling due (timed park).
//
// Each source publishes before notifying, and the joiner registers before
// its final re-check of both conditions, so one of the two always sees
// the other; a notify that lands after the joiner left is a spurious
// wakeup of whoever uses that parker next, never a lost one.

#include <algorithm>
#include <cstdint>
#include <optional>

#include "common/clock.hpp"
#include "common/event_count.hpp"
#include "executor/executor.hpp"

namespace evmp::exec {

/// What one join did (the runtime's await counters).
struct JoinStats {
  std::uint64_t pumped = 0;  ///< helper tasks run while waiting
  std::uint64_t parks = 0;   ///< times the thread parked
};

/// Yields before parking for a completion join (the tag join climbs a
/// longer ladder; see TagGroup::wait).
inline constexpr int kJoinYields = 16;

/// Run the join loop until `awaited.done()`, helping `helper` (nullptr:
/// park on the awaited object alone). Returns false once `deadline`
/// passed with the condition still false. `Awaited` provides:
///
///   bool done() const;                          // seq_cst load
///   common::EventCount& watch(common::Parker&); // publish the parker the
///       // setter notifies; returns the EventCount to park on (another
///       // waiter's parker when one is already published: it is shared)
template <class Awaited>
bool join(Awaited& awaited, Executor* helper,
          std::optional<common::TimePoint> deadline, JoinStats& stats,
          int yields = kJoinYields) {
  common::SpinWait spin(yields);
  while (!awaited.done()) {
    if (helper != nullptr && helper->try_run_one()) {
      ++stats.pumped;
      spin.reset();
      continue;
    }
    if (spin.spin()) continue;
    if (deadline && common::now() >= *deadline) return false;

    common::EventCount& parker = awaited.watch(common::Parker::current());
    const Executor::ParkedMember member(helper, parker);
    const auto key = parker.prepare_wait();
    if (awaited.done()) {
      parker.cancel_wait();
      break;
    }
    if (helper != nullptr && helper->try_run_one()) {
      // Raced with a post: the task ran with the wait still prepared,
      // which costs at most a spurious wakeup of a nested join.
      parker.cancel_wait();
      ++stats.pumped;
      spin.reset();
      continue;
    }
    std::optional<common::TimePoint> wake_by = deadline;
    if (helper != nullptr) {
      if (const auto due = helper->next_timer_due()) {
        wake_by = wake_by ? std::min(*wake_by, *due) : *due;
      }
    }
    ++stats.parks;
    if (wake_by) {
      parker.commit_wait_until(key, *wake_by);
    } else {
      parker.commit_wait(key);
    }
  }
  return true;
}

}  // namespace evmp::exec
