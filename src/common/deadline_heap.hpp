#pragma once
// The one timer structure: a binary min-heap of payloads keyed by deadline.
//
// Every component that runs something "no earlier than t" keeps one of
// these — the EDT's post_delayed queue, the reactor's timers and the async
// I/O completion queue — and differs only in how it sleeps until
// next_due(): a condition-variable wait_until or the epoll_wait timeout.
//
// Entries are ordered by (due, insertion sequence), so entries with equal
// deadlines come out in push order. push() is O(log n), next_due() O(1),
// pop()/pop_due() O(log n). The backing vector keeps its high-water
// capacity, so popping never allocates.
//
// Not thread-safe: each owner keeps its own synchronisation (a mutex, or
// confinement to one thread).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/clock.hpp"

namespace evmp::common {

template <class T>
class DeadlineHeap {
 public:
  /// Add `value`, due at `due`.
  void push(TimePoint due, T value) {
    entries_.push_back(Entry{due, seq_++, std::move(value)});
    std::push_heap(entries_.begin(), entries_.end(), Later{});
  }

  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Earliest pending deadline; TimePoint::max() when empty.
  [[nodiscard]] TimePoint next_due() const noexcept {
    return entries_.empty() ? TimePoint::max() : entries_.front().due;
  }

  /// Remove and return the earliest entry if it is due at `now` (due <=
  /// now); entries not yet due stay put.
  std::optional<T> pop_due(TimePoint now) {
    if (entries_.empty() || entries_.front().due > now) return std::nullopt;
    return pop();
  }

  /// Remove and return the earliest entry, due or not. Requires !empty().
  T pop() {
    std::pop_heap(entries_.begin(), entries_.end(), Later{});
    T value = std::move(entries_.back().value);
    entries_.pop_back();
    return value;
  }

 private:
  struct Entry {
    TimePoint due;
    std::uint64_t seq;
    T value;
  };

  // std::*_heap build a max-heap; invert the order for earliest-first.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.due != b.due) return a.due > b.due;
      return a.seq > b.seq;
    }
  };

  std::vector<Entry> entries_;
  std::uint64_t seq_ = 0;
};

}  // namespace evmp::common
