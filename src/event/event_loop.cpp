#include "event/event_loop.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/tracing.hpp"

namespace evmp::event {

namespace {
// Move due timed events to the ready queue; caller holds the loop lock.
// The clock is read only while a timer is pending.
template <class Timers, class Ready>
void promote_due(Timers& timers, Ready& ready) {
  if (timers.empty()) return;
  const common::TimePoint now_tp = common::now();
  while (auto ev = timers.pop_due(now_tp)) ready.push_back(std::move(*ev));
}
}  // namespace

EventLoop::EventLoop(std::string loop_name) : Executor(std::move(loop_name)) {}

EventLoop::~EventLoop() {
  stop();
  if (thread_ && thread_->joinable()) thread_->join();
}

void EventLoop::start() {
  if (thread_) return;
  thread_.emplace([this] { run(); });
}

void EventLoop::post(exec::Task task) {
  // The notify happens while holding the lock: once we unlock, a consumer
  // may dispatch the event, observe program completion, and destroy this
  // loop — notifying after unlock would then touch a dead cv.
  std::scoped_lock lk(mu_);
  if (stop_requested_) {
    EVMP_LOG_WARN << "event posted to stopped loop '" << name()
                  << "' was dropped";
    return;
  }
  queue_.push_back(QueuedEvent{common::now(), std::move(task)});
  cv_.notify_all();
  wake_parked_members();  // an awaiting EDT parks outside cv_
}

void EventLoop::post_batch(std::span<exec::Task> tasks) {
  if (tasks.empty()) return;
  std::scoped_lock lk(mu_);
  if (stop_requested_) {
    EVMP_LOG_WARN << "batch of " << tasks.size()
                  << " events posted to stopped loop '" << name()
                  << "' was dropped";
    return;
  }
  const auto posted = common::now();  // one timestamp for the whole burst
  for (exec::Task& task : tasks) {
    queue_.push_back(QueuedEvent{posted, std::move(task)});
  }
  batch_posts_.fetch_add(1, std::memory_order_relaxed);
  cv_.notify_all();  // under the lock: see post()
  wake_parked_members();
}

void EventLoop::post_delayed(exec::Task task, common::Nanos delay) {
  std::scoped_lock lk(mu_);
  if (stop_requested_) {
    EVMP_LOG_WARN << "delayed event posted to stopped loop '" << name()
                  << "' was dropped";
    return;
  }
  const common::TimePoint due = common::now() + delay;
  timers_.push(due, QueuedEvent{due, std::move(task)});
  cv_.notify_all();  // under the lock: see post()
  wake_parked_members();  // a parked await re-reads next_timer_due()
}

void EventLoop::invoke_and_wait(exec::Task task) {
  if (is_dispatch_thread()) {
    task();
    return;
  }
  exec::CompletionRef state = exec::CompletionState::make();
  post([state, fn = std::move(task)]() mutable {
    try {
      fn();
      state->set_done();
    } catch (...) {
      state->set_exception(std::current_exception());
    }
  });
  state->wait();
}

std::size_t EventLoop::pending() const {
  std::scoped_lock lk(mu_);
  return queue_.size();
}

std::optional<common::TimePoint> EventLoop::next_timer_due() const {
  std::scoped_lock lk(mu_);
  if (timers_.empty()) return std::nullopt;
  return timers_.next_due();
}

void EventLoop::dispatch(QueuedEvent ev) {
  const auto begin = common::now();
  delay_hist_.record(
      static_cast<std::uint64_t>(std::max<std::int64_t>(
          0, common::elapsed_ns(ev.posted, begin))));
  ++nesting_;
  int snapshot = max_nesting_.load(std::memory_order_relaxed);
  while (nesting_ > snapshot &&
         !max_nesting_.compare_exchange_weak(snapshot, nesting_,
                                             std::memory_order_relaxed)) {
  }
  try {
    ev.fn();
  } catch (...) {
    exec::unhandled_exception_hook()(name(), std::current_exception());
  }
  if (common::Tracer::instance().enabled()) {
    common::Tracer::instance().record(
        nesting_ > 1 ? "edt.dispatch.nested" : "edt.dispatch", "event",
        begin, common::now());
  }
  --nesting_;
  if (nesting_ == 0) {
    busy_ns_.fetch_add(common::elapsed_ns(begin, common::now()),
                       std::memory_order_relaxed);
  }
  dispatched_.fetch_add(1, std::memory_order_relaxed);
}

bool EventLoop::pump_one() {
  if (!is_dispatch_thread()) return false;
  QueuedEvent ev;
  {
    std::scoped_lock lk(mu_);
    promote_due(timers_, queue_);
    if (queue_.empty()) return false;
    ev = queue_.pop_front();
  }
  dispatch(std::move(ev));
  return true;
}

bool EventLoop::try_run_one() { return pump_one(); }

void EventLoop::run() {
  ThreadBinding bind(this);
  running_.store(true, std::memory_order_release);
  std::unique_lock lk(mu_);
  while (true) {
    promote_due(timers_, queue_);
    if (stop_requested_) break;
    if (queue_.empty()) {
      if (!timers_.empty()) {
        cv_.wait_until(lk, timers_.next_due());
      } else {
        cv_.wait(lk, [&] {
          return stop_requested_ || !queue_.empty() || !timers_.empty();
        });
      }
      continue;
    }
    QueuedEvent ev = queue_.pop_front();
    ++active_handlers_;
    lk.unlock();
    dispatch(std::move(ev));
    lk.lock();
    --active_handlers_;
    if (queue_.empty() && active_handlers_ == 0) idle_cv_.notify_all();
  }
  running_.store(false, std::memory_order_release);
  idle_cv_.notify_all();
}

void EventLoop::stop() {
  {
    std::scoped_lock lk(mu_);
    stop_requested_ = true;
    cv_.notify_all();  // under the lock: see post()
  }
  auto& tracer = common::Tracer::instance();
  const std::string prefix(name());
  tracer.set_counter(prefix + ".dispatched",
                     dispatched_.load(std::memory_order_relaxed));
  tracer.set_counter(prefix + ".batch_posts",
                     batch_posts_.load(std::memory_order_relaxed));
}

void EventLoop::wait_until_idle() {
  std::unique_lock lk(mu_);
  idle_cv_.wait(lk, [&] {
    return (queue_.empty() && active_handlers_ == 0) || stop_requested_;
  });
}

void EventLoop::reset_stats() {
  dispatched_.store(0, std::memory_order_relaxed);
  busy_ns_.store(0, std::memory_order_relaxed);
  max_nesting_.store(0, std::memory_order_relaxed);
  delay_hist_.reset();
}

}  // namespace evmp::event
