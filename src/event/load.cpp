#include "event/load.hpp"

#include <mutex>

#include "common/sync.hpp"

namespace evmp::event {

struct CompletionToken::Impl {
  common::TimePoint fired;
  std::atomic<bool> completed{false};
  // Shared across all requests of one run:
  std::mutex* mu = nullptr;
  common::LatencyHistogram* response = nullptr;
  common::CountdownLatch* latch = nullptr;
  common::TimePoint* last_completion = nullptr;
};

void CompletionToken::complete() const {
  if (!impl_) return;
  if (impl_->completed.exchange(true)) return;  // idempotent
  const auto now_tp = common::now();
  impl_->response->record(
      static_cast<std::uint64_t>(common::elapsed_ns(impl_->fired, now_tp)));
  {
    std::scoped_lock lk(*impl_->mu);
    if (now_tp > *impl_->last_completion) *impl_->last_completion = now_tp;
  }
  impl_->latch->count_down();
}

LoadResult OpenLoopDriver::run(EventLoop& edt, const Options& options,
                               const Handler& handler) {
  LoadResult result;
  common::LatencyHistogram response;
  std::mutex mu;
  common::CountdownLatch latch(options.count);
  common::TimePoint last_completion = common::now();
  common::Xoshiro256 rng(options.seed);

  const auto mean_gap_ns = 1e9 / options.rate_hz;
  const auto start = common::now();
  common::TimePoint next_fire = start;

  for (std::size_t i = 0; i < options.count; ++i) {
    // Open loop: the fire schedule is fixed up front and never waits for
    // the system; lateness piles up in the EDT queue, as in the paper.
    const auto gap_ns = options.poisson
                            ? rng.next_exponential(mean_gap_ns)
                            : mean_gap_ns;
    if (common::now() < next_fire) {
      common::precise_sleep(std::chrono::duration_cast<common::Nanos>(
          next_fire - common::now()));
    }
    auto impl = std::make_shared<CompletionToken::Impl>();
    impl->fired = common::now();
    impl->mu = &mu;
    impl->response = &response;
    impl->latch = &latch;
    impl->last_completion = &last_completion;
    CompletionToken token(std::move(impl));
    edt.post([&handler, i, token] { handler(i, token); });
    ++result.fired;
    next_fire += common::Nanos{static_cast<std::int64_t>(gap_ns)};
  }

  result.all_completed = latch.wait_for(options.drain_timeout);
  {
    std::scoped_lock lk(mu);
    result.response = response.snapshot();
    result.completed = result.response.total_count();
    result.wall_seconds = common::to_sec(last_completion - start);
  }
  return result;
}

ResponseProbe::ResponseProbe(EventLoop& loop, common::Nanos period)
    : loop_(loop), period_(period) {}

ResponseProbe::~ResponseProbe() { stop(); }

void ResponseProbe::start() {
  if (thread_) return;
  thread_.emplace([this](const std::stop_token& st) { probe_main(st); });
}

void ResponseProbe::stop() {
  if (!thread_) return;
  thread_->request_stop();
  if (thread_->joinable()) thread_->join();
  thread_.reset();
}

void ResponseProbe::probe_main(const std::stop_token& st) {
  while (!st.stop_requested()) {
    const auto posted = common::now();
    loop_.post([this, posted] {
      hist_.record(static_cast<std::uint64_t>(
          common::elapsed_ns(posted, common::now())));
    });
    common::precise_sleep(period_);
  }
}

}  // namespace evmp::event
