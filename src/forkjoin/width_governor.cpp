#include "forkjoin/width_governor.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <thread>

#include "common/tracing.hpp"

namespace evmp::fj {

namespace {

int hardware_cores() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

WidthGovernor::WidthGovernor(int cores) noexcept {
  if (cores > 0) cores_override_.store(cores, std::memory_order_relaxed);
}

void WidthGovernor::set_cores(int cores) noexcept {
  cores_override_.store(cores > 0 ? cores : 0, std::memory_order_relaxed);
}

int WidthGovernor::cores() const noexcept {
  const int v = cores_override_.load(std::memory_order_relaxed);
  return v > 0 ? v : hardware_cores();
}

void WidthGovernor::on_lease() noexcept {
  const int now = active_.fetch_add(1, std::memory_order_relaxed) + 1;
  int seen = high_water_.load(std::memory_order_relaxed);
  while (now > seen &&
         !high_water_.compare_exchange_weak(seen, now,
                                            std::memory_order_relaxed)) {
  }
  // The decaying estimate rides the same peaks; only decay() lowers it.
  seen = decayed_high_water_.load(std::memory_order_relaxed);
  while (now > seen && !decayed_high_water_.compare_exchange_weak(
                           seen, now, std::memory_order_relaxed)) {
  }
}

void WidthGovernor::on_release() noexcept {
  active_.fetch_sub(1, std::memory_order_relaxed);
}

int WidthGovernor::active() const noexcept {
  return active_.load(std::memory_order_relaxed);
}

int WidthGovernor::high_water() const noexcept {
  return high_water_.load(std::memory_order_relaxed);
}

int WidthGovernor::decayed_high_water() const noexcept {
  return decayed_high_water_.load(std::memory_order_relaxed);
}

int WidthGovernor::decide(int hint) noexcept {
  WidthSignals signals;
  signals.active_leases = active_.load(std::memory_order_relaxed);
  signals.cores = cores();
  return decide(hint, signals);
}

int WidthGovernor::decide(int hint, const WidthSignals& signals) noexcept {
  const int budget = signals.cores > 0 ? signals.cores : cores();
  if (hint <= 0) hint = budget;
  // Demand counts the requester itself plus every region running now.
  const int demand = std::max(1, signals.active_leases + 1);
  const int share = std::max(1, (kOversubscription * budget) / demand);
  const int width = std::clamp(share, 1, std::max(1, hint));
  decisions_.fetch_add(1, std::memory_order_relaxed);
  count(requested_, hint);
  count(granted_, width);
  return width;
}

bool WidthGovernor::decay_due() noexcept {
  const std::uint32_t n =
      decisions_since_decay_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n < kDecayPeriod) return false;
  decisions_since_decay_.store(0, std::memory_order_relaxed);
  return true;
}

std::size_t WidthGovernor::decay() noexcept {
  const int current = std::max(0, active_.load(std::memory_order_relaxed));
  const int estimate = decayed_high_water_.load(std::memory_order_relaxed);
  // Halve toward current activity; a sustained load keeps the estimate at
  // its level, a finished burst halves it every period. Rounds up so a
  // live adaptive load (which is what triggers decay) never trims its
  // last warm team — sequential leases would otherwise recreate helper
  // threads every period.
  const int next = std::max(current, (estimate + current + 1) / 2);
  decayed_high_water_.store(next, std::memory_order_relaxed);
  return static_cast<std::size_t>(next);
}

std::size_t WidthGovernor::bucket_of(int width) noexcept {
  if (width < 1) width = 1;
  const auto bits =
      std::bit_width(static_cast<unsigned>(width - 1));  // 1→0, 2→1, 4→2 ...
  return std::min<std::size_t>(bits, kHistogramBuckets - 1);
}

void WidthGovernor::count(
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets>& h,
    int width) noexcept {
  h[bucket_of(width)].fetch_add(1, std::memory_order_relaxed);
}

std::array<std::uint64_t, WidthGovernor::kHistogramBuckets>
WidthGovernor::requested_histogram() const noexcept {
  std::array<std::uint64_t, kHistogramBuckets> out{};
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    out[i] = requested_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::array<std::uint64_t, WidthGovernor::kHistogramBuckets>
WidthGovernor::granted_histogram() const noexcept {
  std::array<std::uint64_t, kHistogramBuckets> out{};
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    out[i] = granted_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void WidthGovernor::publish_counters(std::string_view prefix) const {
  auto& tracer = common::Tracer::instance();
  const std::string base(prefix);
  tracer.set_counter(base + ".decisions",
                     decisions_.load(std::memory_order_relaxed));
  const auto requested = requested_histogram();
  const auto granted = granted_histogram();
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    // Bucket label = the bucket's upper width bound (1, 2, 4, 8, ...).
    const std::string label = std::to_string(1u << i);
    if (requested[i] != 0) {
      tracer.set_counter(base + ".requested_w" + label, requested[i]);
    }
    if (granted[i] != 0) {
      tracer.set_counter(base + ".granted_w" + label, granted[i]);
    }
  }
}

}  // namespace evmp::fj
