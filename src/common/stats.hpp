#pragma once
// The latency accumulator every benchmark harness uses: a log-bucketed
// histogram for cheap concurrent recording in bounded memory.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace evmp::common {

/// The latency quantiles every harness reports, in nanoseconds.
struct LatencyQuantiles {
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
  std::uint64_t max = 0;
  double mean_ns = 0.0;
};

/// Copyable point-in-time copy of a LatencyHistogram (the histogram itself
/// holds atomics and cannot be copied). Snapshots merge exactly —
/// bucket-wise addition loses nothing — so per-thread histograms can be
/// combined before querying, and quantiles interpolate within the landing
/// bucket instead of rounding to its midpoint.
class HistogramSnapshot {
 public:
  HistogramSnapshot() = default;

  [[nodiscard]] std::uint64_t total_count() const noexcept { return n_; }
  [[nodiscard]] double mean_ns() const noexcept;
  /// Percentile (ns) with linear interpolation inside the landing bucket;
  /// q in [0,1]. Returns 0 if empty.
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept;
  /// p50/p90/p99/p999/max/mean in one pass over the buckets.
  [[nodiscard]] LatencyQuantiles quantiles() const noexcept;

  /// Exact bucket-wise merge (associative and commutative).
  void merge(const HistogramSnapshot& other) noexcept;

 private:
  friend class LatencyHistogram;
  static constexpr int kSubBits = 3;               // 8 sub-buckets
  static constexpr int kBuckets = 64 << kSubBits;  // covers full u64 range

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t sum_ = 0;
  std::uint64_t n_ = 0;
};

/// Thread-safe log-bucketed histogram of nanosecond latencies.
/// Buckets are [2^k, 2^(k+1)) with 8 sub-buckets each (HDR-style), giving
/// <= 12.5% relative error — enough for response-time distributions while
/// letting any number of threads record concurrently without locks.
class LatencyHistogram {
 public:
  LatencyHistogram();

  /// Record one latency measurement in nanoseconds. Wait-free.
  void record(std::uint64_t ns) noexcept;

  [[nodiscard]] std::uint64_t total_count() const noexcept;
  /// snapshot().percentile(q): interpolated percentile (ns); q in [0,1].
  /// Returns 0 if empty.
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept {
    return snapshot().percentile(q);
  }
  [[nodiscard]] double mean_ns() const noexcept {
    return snapshot().mean_ns();
  }

  /// Copyable point-in-time copy (quiescent snapshots are exact; a
  /// snapshot taken while writers race is a consistent-enough view for
  /// reporting, same contract as the counters themselves).
  [[nodiscard]] HistogramSnapshot snapshot() const noexcept;

  void reset() noexcept;

 private:
  friend class HistogramSnapshot;
  static constexpr int kSubBits = HistogramSnapshot::kSubBits;
  static constexpr int kBuckets = HistogramSnapshot::kBuckets;
  static std::size_t bucket_of(std::uint64_t ns) noexcept;
  /// Inclusive value range covered by bucket `b` ([lo, hi]).
  static void bucket_bounds(std::size_t b, std::uint64_t* lo,
                            std::uint64_t* hi) noexcept;

  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> n_{0};
};

}  // namespace evmp::common
