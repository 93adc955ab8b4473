#pragma once
// WidthGovernor: elastic team-width decisions for adaptive parallel regions.
//
// Figure 9's level-off is the paper's core scaling pathology: per-event
// `parallel` regions lease a fixed-width team regardless of load, so teams
// oversubscribe the cores exactly when the machine is busiest. TeamPool
// (PR 5) fixed thread *creation* cost; width was the remaining static knob.
// The governor closes it: a region asks for up to `hint` threads and is
// granted a width sized from live load signals —
//
//  * the number of concurrently leased teams (each is a running region
//    competing for the same cores), and
//  * the core budget (hardware_concurrency, or the simulated machine's
//    core count in the Figure 9 model benches).
//
// Granted width = clamp(kOversubscription * cores / demand, 1, hint): a
// lone request on an idle 16-core host gets its full hint (e.g. 8); fifty
// concurrent requests get width 1-2. The off-path cost is a handful of
// relaxed atomic loads — no locks, no allocation (the CI alloc budget
// `allocs_per_adaptive_lease` enforces the latter).
//
// The governor also tracks a decaying high-water estimate of concurrent
// leases. TeamPool consults it (decay_due()/decay()) every
// kDecayPeriod adaptive leases and trims its idle team cache down to the
// decayed floor, so a burst that grew the cache doesn't pin helper threads
// forever. DESIGN.md §11 documents the signals and the decay schedule.

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>

namespace evmp::fj {

/// Deterministic signal set for decide() — tests inject these directly
/// instead of racing real leases.
struct WidthSignals {
  int active_leases = 0;  ///< regions running now (excluding the requester)
  int cores = 0;          ///< core budget; <= 0 means hardware_concurrency
};

/// Sizes adaptive team leases from live load; all state is relaxed
/// atomics, safe to read and update concurrently from any thread.
class WidthGovernor {
 public:
  /// Width histogram buckets: 1, 2, 3-4, 5-8, ..., 65+ (bit-width based).
  static constexpr std::size_t kHistogramBuckets = 8;
  /// Adaptive leases between decay/trim sweeps (see TeamPool).
  static constexpr std::uint32_t kDecayPeriod = 64;
  /// Demand is allowed to oversubscribe the cores by this factor before
  /// widths shrink below the hint: mild oversubscription is benign (blocked
  /// ranges queue briefly), and the headroom keeps widths from collapsing
  /// to 1 the moment demand reaches the core count.
  static constexpr int kOversubscription = 2;

  /// cores <= 0 selects std::thread::hardware_concurrency().
  explicit WidthGovernor(int cores = 0) noexcept;

  /// Override the core budget (benches model virtual machines; 0 restores
  /// hardware_concurrency).
  void set_cores(int cores) noexcept;
  [[nodiscard]] int cores() const noexcept;

  // --- live load feeds (relaxed atomics; called by TeamPool) --------------
  void on_lease() noexcept;
  void on_release() noexcept;

  [[nodiscard]] int active() const noexcept;
  /// Monotone high-water mark of concurrent leases.
  [[nodiscard]] int high_water() const noexcept;
  /// Decaying estimate of concurrent leases (the trim floor source).
  [[nodiscard]] int decayed_high_water() const noexcept;

  /// Width for a region that can use up to `hint` threads (hint <= 0 means
  /// "as wide as useful" = the core budget). Always in [1, max(1, hint)].
  /// Records the requested and granted widths in the histograms.
  int decide(int hint) noexcept;
  /// Deterministic variant: same policy over injected signals.
  int decide(int hint, const WidthSignals& signals) noexcept;

  /// True every kDecayPeriod decide() calls — the caller should then run
  /// decay() and trim its caches to the returned floor.
  [[nodiscard]] bool decay_due() noexcept;
  /// Halve the high-water estimate toward current activity; returns the
  /// new estimate as the idle-cache floor (teams worth keeping parked).
  std::size_t decay() noexcept;

  /// Width-decision histograms (bucket k counts widths in
  /// (2^(k-1), 2^k], i.e. 1, 2, 3-4, 5-8, ... ; the last bucket is open).
  [[nodiscard]] std::array<std::uint64_t, kHistogramBuckets>
  requested_histogram() const noexcept;
  [[nodiscard]] std::array<std::uint64_t, kHistogramBuckets>
  granted_histogram() const noexcept;

  /// Copy the histograms into common::Tracer counters
  /// ("<prefix>.requested_w<bucket>" / "<prefix>.granted_w<bucket>",
  /// zero buckets skipped) plus "<prefix>.decisions".
  void publish_counters(std::string_view prefix) const;

 private:
  static std::size_t bucket_of(int width) noexcept;
  void count(std::array<std::atomic<std::uint64_t>, kHistogramBuckets>& h,
             int width) noexcept;

  std::atomic<int> cores_override_{0};
  std::atomic<int> active_{0};
  std::atomic<int> high_water_{0};
  std::atomic<int> decayed_high_water_{0};
  std::atomic<std::uint32_t> decisions_since_decay_{0};
  std::atomic<std::uint64_t> decisions_{0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> requested_{};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> granted_{};
};

}  // namespace evmp::fj
