#include "common/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace evmp::common {

void OnlineStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  // Chan et al. parallel-merge formula.
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nab = na + nb;
  mean_ += delta * nb / nab;
  m2_ += other.m2_ + delta * delta * na * nb / nab;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

LatencyHistogram::LatencyHistogram() : counts_(kBuckets) {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
}

std::size_t LatencyHistogram::bucket_of(std::uint64_t ns) noexcept {
  if (ns < (1u << kSubBits)) return static_cast<std::size_t>(ns);
  const int msb = 63 - std::countl_zero(ns);
  const int sub =
      static_cast<int>((ns >> (msb - kSubBits)) & ((1u << kSubBits) - 1));
  return static_cast<std::size_t>(((msb - kSubBits + 1) << kSubBits) + sub);
}

void LatencyHistogram::bucket_bounds(std::size_t b, std::uint64_t* lo,
                                     std::uint64_t* hi) noexcept {
  if (b < (1u << kSubBits)) {
    *lo = *hi = b;
    return;
  }
  const std::size_t exp = (b >> kSubBits) + kSubBits - 1;
  const std::uint64_t sub = b & ((1u << kSubBits) - 1);
  const std::uint64_t width = 1ull << (exp - kSubBits);
  *lo = (1ull << exp) + sub * width;
  *hi = *lo + width - 1;
}

void LatencyHistogram::record(std::uint64_t ns) noexcept {
  counts_[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(ns, std::memory_order_relaxed);
  n_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::total_count() const noexcept {
  return n_.load(std::memory_order_relaxed);
}

HistogramSnapshot LatencyHistogram::snapshot() const noexcept {
  HistogramSnapshot s;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    s.counts_[b] = counts_[b].load(std::memory_order_relaxed);
  }
  s.sum_ = sum_.load(std::memory_order_relaxed);
  s.n_ = n_.load(std::memory_order_relaxed);
  return s;
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const std::uint64_t c = other.counts_[b].load(std::memory_order_relaxed);
    if (c != 0) counts_[b].fetch_add(c, std::memory_order_relaxed);
  }
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  n_.fetch_add(other.n_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

double HistogramSnapshot::mean_ns() const noexcept {
  if (n_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(n_);
}

std::uint64_t HistogramSnapshot::percentile(double q) const noexcept {
  if (n_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n_)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    seen += counts_[b];
    if (seen < target) continue;
    // Interpolate linearly inside the landing bucket: the target rank's
    // position among the bucket's own samples picks the value between the
    // bucket's bounds instead of rounding to its midpoint.
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    LatencyHistogram::bucket_bounds(b, &lo, &hi);
    const std::uint64_t before = seen - counts_[b];
    const double frac = static_cast<double>(target - before) /
                        static_cast<double>(counts_[b]);
    return lo + static_cast<std::uint64_t>(
                    frac * static_cast<double>(hi - lo) + 0.5);
  }
  return 0;  // unreachable: target <= n_ and the buckets sum to n_
}

LatencyQuantiles HistogramSnapshot::quantiles() const noexcept {
  LatencyQuantiles q;
  if (n_ == 0) return q;
  q.p50 = percentile(0.50);
  q.p90 = percentile(0.90);
  q.p99 = percentile(0.99);
  q.p999 = percentile(0.999);
  q.mean_ns = mean_ns();
  for (std::size_t b = counts_.size(); b-- > 0;) {
    if (counts_[b] == 0) continue;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    LatencyHistogram::bucket_bounds(b, &lo, &hi);
    q.max = hi;
    break;
  }
  return q;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) noexcept {
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    counts_[b] += other.counts_[b];
  }
  sum_ += other.sum_;
  n_ += other.n_;
}

void LatencyHistogram::reset() noexcept {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  n_.store(0, std::memory_order_relaxed);
}

}  // namespace evmp::common
