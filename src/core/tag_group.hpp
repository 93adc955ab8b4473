#pragma once
// Named task groups backing the name_as(name-tag) / wait(name-tag) clauses.
//
// Paper §III-C: "different target blocks are allowed to share the same
// name-tag, such that when a wait clause is applied with that name-tag, the
// encountering thread suspends until all the name-tag asynchronous target
// block instances finish."
//
// Perf shape: enter/leave are single atomic RMWs on one word, and joining
// is exec::join — the helper pump plus a pause/yield ladder, then a park
// on the joiner's common::Parker — so the help pump never touches a lock.
// The word packs the in-flight count (low 40 bits) with the id of the
// parker the last leaver notifies (high 24 bits). leave()'s final access
// to the group is its decrement; the notify that follows reads the parker
// id from the decrement's result and touches only the never-freed parker.
// That keeps the teardown guarantee: a waiter may destroy the runtime the
// moment it observes the count at zero. The published parker stays in the
// word after the join (a stale one costs one spurious notify per drain;
// clearing it could strand a joiner that shares it). The exception slot
// is a cold path guarded by a spinlock and flagged by an atomic.

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/clock.hpp"
#include "common/event_count.hpp"
#include "executor/join.hpp"

namespace evmp {

/// Tracks the in-flight count of one name-tag.
class TagGroup {
 public:
  /// Register one more in-flight block under this tag.
  void enter() noexcept { word_.fetch_add(1, std::memory_order_relaxed); }

  /// Mark one block finished; `error` is the block's exception (nullptr on
  /// success). The first error is kept and rethrown by the next wait().
  void leave(std::exception_ptr error) noexcept;

  /// Block until the in-flight count reaches zero, running queued tasks of
  /// `helper` (the caller's own executor, or nullptr) meanwhile. Returns
  /// false if `deadline` passed first; otherwise rethrows (and clears) the
  /// first stored error and returns true.
  bool wait(exec::Executor* helper, std::optional<common::TimePoint> deadline,
            exec::JoinStats& stats);

  [[nodiscard]] int in_flight() const noexcept {
    return static_cast<int>(word_.load(std::memory_order_acquire) &
                            kCountMask);
  }

  /// exec::join protocol.
  [[nodiscard]] bool done() const noexcept {
    return (word_.load(std::memory_order_seq_cst) & kCountMask) == 0;
  }
  common::EventCount& watch(common::Parker& mine) noexcept;

 private:
  static constexpr int kParkerShift = 40;
  static constexpr std::uint64_t kCountMask = (1ULL << kParkerShift) - 1;
  /// Yields before parking: a fan-out's last blocks usually finish within
  /// this ladder, so most tag joins never reach the futex.
  static constexpr int kSpinYields = 256;

  std::atomic<std::uint64_t> word_{0};
  std::atomic<bool> has_error_{false};
  // The error slot is written at most once per wait cycle and read only
  // after has_error_ reads true; the flag spinlock covers the cold path.
  std::atomic_flag error_lock_ = ATOMIC_FLAG_INIT;
  std::exception_ptr first_error_;
};

/// Name-tag → TagGroup map; groups are created on first use and live for
/// the registry's lifetime (a tag is a program-wide name, like the paper's).
/// Sharded by precomputed string hash so concurrent name_as dispatches on
/// distinct tags never contend on one registry lock, and backed by
/// pre-reserved unordered_map buckets so first-use insertion does not
/// rebalance a tree under the lock.
class TagRegistry {
 public:
  TagRegistry();

  /// Get or create the group for `tag`.
  TagGroup& group(std::string_view tag);

  /// Number of distinct tags seen.
  [[nodiscard]] std::size_t size() const;

  /// Total groups ever created (tracer counter `*.tags_created`).
  [[nodiscard]] std::uint64_t created() const noexcept {
    return created_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kShards = 16;

  struct TransparentHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct TransparentEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const noexcept {
      return a == b;
    }
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::unique_ptr<TagGroup>,
                       TransparentHash, TransparentEq>
        groups;
  };

  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> created_{0};
};

}  // namespace evmp
