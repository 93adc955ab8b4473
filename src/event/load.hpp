#pragma once
// Load generation and responsiveness probing for event-driven benchmarks.
//
// The paper's §V.A methodology: events are fired at a fixed request load
// (10..100 requests/sec); "response time shows the time flow from the event
// firing to the finish of its event handling". OpenLoopDriver reproduces
// that: an external thread (the "user") posts events at the configured rate
// regardless of how backed up the EDT is (open-loop), and each request's
// response time is measured from fire to the handler's logical completion —
// which, for asynchronous approaches, the handler signals explicitly once
// the final (GUI) step ran.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "event/event_loop.hpp"

namespace evmp::event {

/// Signals the logical completion of one request's handling; thread-safe,
/// copyable, and idempotent (second call is ignored).
class CompletionToken {
 public:
  CompletionToken() = default;

  /// Record the response time now. Safe from any thread.
  void complete() const;

  [[nodiscard]] bool valid() const noexcept { return impl_ != nullptr; }

 private:
  friend class OpenLoopDriver;
  struct Impl;
  explicit CompletionToken(std::shared_ptr<Impl> impl)
      : impl_(std::move(impl)) {}
  std::shared_ptr<Impl> impl_;
};

/// Result of one open-loop run.
struct LoadResult {
  common::HistogramSnapshot response;  ///< per-request response times (ns)
  std::uint64_t fired = 0;             ///< requests posted
  std::uint64_t completed = 0;         ///< requests that signalled done
  double wall_seconds = 0.0;           ///< fire of first .. last completion
  bool all_completed = false;
};

/// Fires `count` requests at `rate_hz` onto an EventLoop and collects
/// response-time statistics.
class OpenLoopDriver {
 public:
  struct Options {
    std::size_t count = 100;       ///< requests to fire
    double rate_hz = 50.0;         ///< request load (requests/second)
    bool poisson = false;          ///< exponential vs constant inter-arrival
    std::uint64_t seed = 42;       ///< arrival-jitter RNG seed
    common::Millis drain_timeout{30'000};  ///< wait for stragglers
  };

  /// `handler(index, token)` runs on the EDT for each request; it (or the
  /// asynchronous continuation it spawns) must eventually call
  /// token.complete() to end that request's response-time measurement.
  using Handler =
      std::function<void(std::size_t index, const CompletionToken& token)>;

  /// Run one load round to completion. Blocks the calling thread.
  static LoadResult run(EventLoop& edt, const Options& options,
                        const Handler& handler);
};

/// Periodically posts no-op probe events to an EventLoop and measures how
/// long each waits before being dispatched — the direct responsiveness
/// metric behind Figure 8 (an unresponsive EDT shows as high probe latency).
class ResponseProbe {
 public:
  ResponseProbe(EventLoop& loop, common::Nanos period);
  ~ResponseProbe();

  void start();
  void stop();

  /// Probe latency distribution (post → dispatch start), nanoseconds.
  [[nodiscard]] const common::LatencyHistogram& latencies() const noexcept {
    return hist_;
  }

 private:
  void probe_main(const std::stop_token& st);

  EventLoop& loop_;
  common::Nanos period_;
  common::LatencyHistogram hist_;
  std::optional<std::jthread> thread_;
};

}  // namespace evmp::event
