#pragma once
// The one counter idiom. A counter group is a snapshot struct of
// std::uint64_t fields that lists each field once, with its published
// name, in a static constexpr table:
//
//   struct ReactorStats {
//     std::uint64_t wakeups = 0;
//     static constexpr common::CounterField<ReactorStats> kFields[] = {
//         {"wakeups", &ReactorStats::wakeups}};
//   };
//
// common::Counters<ReactorStats> holds one such struct and bumps it in
// place through std::atomic_ref: add() is one relaxed fetch_add at a
// constant offset, the instruction a std::atomic member compiles to.
// snapshot(), reset() and publish() walk kFields, so a new counter is one
// field plus one table entry.
//
// Relaxed RMWs order nothing. A counter whose bump must publish other
// writes (EventLoop::dispatched_ pairs a release bump with busy_time()),
// gauges that also fall, and histograms stay hand-written.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>

#include "common/tracing.hpp"

namespace evmp::common {

/// One kFields entry: the published name and the field it reads.
template <class Stats>
struct CounterField {
  std::string_view name;  ///< published as "<prefix>.<name>"
  std::uint64_t Stats::*member;
};

/// Relaxed atomic counters laid out as `Stats` (see the header comment).
template <class Stats>
class Counters {
 public:
  using Field = std::uint64_t Stats::*;

  void add(Field field, std::uint64_t n = 1) noexcept {
    ref(field).fetch_add(n, std::memory_order_relaxed);
  }

  /// Keep the largest value seen (a high-water mark such as max_depth).
  void raise(Field field, std::uint64_t value) noexcept {
    const std::atomic_ref<std::uint64_t> r = ref(field);
    std::uint64_t seen = r.load(std::memory_order_relaxed);
    while (seen < value &&
           !r.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  }

  /// Field-by-field relaxed copy; exact once the writers are quiescent.
  [[nodiscard]] Stats snapshot() const noexcept {
    Stats out;
    for (const auto& f : Stats::kFields) {
      out.*f.member = ref(f.member).load(std::memory_order_relaxed);
    }
    return out;
  }

  void reset() noexcept {
    for (const auto& f : Stats::kFields) {
      ref(f.member).store(0, std::memory_order_relaxed);
    }
  }

  /// Write every field to common::Tracer as "<prefix>.<name>".
  void publish(std::string_view prefix) const {
    publish(prefix, snapshot());
  }
  static void publish(std::string_view prefix, const Stats& values) {
    auto& tracer = Tracer::instance();
    const std::string base = std::string(prefix) + '.';
    for (const auto& f : Stats::kFields) {
      tracer.set_counter(base + std::string(f.name), values.*f.member);
    }
  }

 private:
  static constexpr bool distinct_fields() {
    for (std::size_t i = 0; i < std::size(Stats::kFields); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        if (Stats::kFields[i].member == Stats::kFields[j].member) return false;
      }
    }
    return true;
  }
  static_assert(std::size(Stats::kFields) * sizeof(std::uint64_t) ==
                        sizeof(Stats) &&
                    distinct_fields(),
                "kFields must list every field of Stats exactly once");
  static_assert(alignof(Stats) >=
                std::atomic_ref<std::uint64_t>::required_alignment);

  std::atomic_ref<std::uint64_t> ref(Field field) const noexcept {
    return std::atomic_ref<std::uint64_t>(values_.*field);
  }

  mutable Stats values_{};
};

}  // namespace evmp::common
