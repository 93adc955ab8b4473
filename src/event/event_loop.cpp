#include "event/event_loop.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/tracing.hpp"
#include "executor/join.hpp"

namespace evmp::event {

EventLoop::EventLoop(std::string loop_name) : Executor(std::move(loop_name)) {}

EventLoop::~EventLoop() {
  stop();
  if (thread_ && thread_->joinable()) thread_->join();
  // stop() discards what is still queued or waiting on a timer.
  events_.drain([](EventNode* node) { discard(node); });
  while (!timers_.empty()) discard(timers_.pop());
}

void EventLoop::start() {
  if (thread_) return;
  thread_.emplace([this] { run(); });
}

EventLoop::EventNode* EventLoop::make_node(common::TimePoint posted,
                                           exec::Task task, bool timed) {
  EventNode* node = NodePool::acquire();
  node->posted = posted;
  node->fn = std::move(task);
  node->timed = timed;
  return node;
}

void EventLoop::discard(EventNode* node) noexcept {
  node->fn = exec::Task{};
  NodePool::release(node);
}

bool EventLoop::enqueue(EventNode* node, const char* what) {
  if (events_.push(node)) return true;
  discard(node);
  EVMP_LOG_WARN << what << " posted to stopped loop '" << name()
                << "' was dropped";
  return false;
}

void EventLoop::post(exec::Task task) {
  EventNode* node = make_node(common::now(), std::move(task), false);
  if (enqueue(node, "event")) wake_parked_members();
}

void EventLoop::post_delayed(exec::Task task, common::Nanos delay) {
  const common::TimePoint due = common::now() + delay;
  EventNode* node = make_node(due, std::move(task), true);
  // The EDT files it and re-reads next_timer_due() before it parks again.
  if (enqueue(node, "delayed event")) wake_parked_members();
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

std::size_t EventLoop::pending() const { return events_.size(); }

std::optional<common::TimePoint> EventLoop::next_timer_due() const {
  if (timers_.empty()) return std::nullopt;
  return timers_.next_due();
}

void EventLoop::dispatch(EventNode* node) {
  const common::TimePoint posted = node->posted;
  exec::Task fn = std::move(node->fn);
  NodePool::release(node);  // recycle before running: the handler may post
  const auto begin = common::now();
  delay_hist_.record(
      static_cast<std::uint64_t>(std::max<std::int64_t>(
          0, common::elapsed_ns(posted, begin))));
  ++nesting_;
  counters_.raise(&EventLoopStats::max_nesting,
                  static_cast<std::uint64_t>(nesting_));
  try {
    fn();
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
  // Release: busy_ns_ above is visible to whoever reads this count.
  dispatched_.fetch_add(1, std::memory_order_release);
}

EventLoop::EventNode* EventLoop::next_event() {
  // Due timers go to the tail, behind what is already queued. The clock is
  // read only while a timer is pending.
  if (!timers_.empty()) {
    const common::TimePoint now_tp = common::now();
    while (auto due = timers_.pop_due(now_tp)) {
      (*due)->timed = false;
      if (!events_.push(*due)) discard(*due);  // stopped: dropped unrun
    }
  }
  EventNode* node = nullptr;
  while (events_.try_pop(node) == EventList::Pop::kTaken) {
    if (!node->timed) return node;
    timers_.push(node->posted, node);
  }
  return nullptr;
}

bool EventLoop::pump_one() {
  if (!is_dispatch_thread()) return false;
  if (nesting_ == 0 && !busy_.load(std::memory_order_relaxed)) {
    // Idle top level: stay idle (no writes) while nothing is queued or
    // due. Otherwise mark busy before the pop: a wait_until_idle() that
    // reads the pop's count decrement then also reads busy_ set.
    if (events_.size() == 0 &&
        (timers_.empty() || timers_.next_due() > common::now())) {
      return false;
    }
    busy_.store(true, std::memory_order_relaxed);
  }
  EventNode* node = next_event();
  if (node == nullptr) {
    if (nesting_ == 0) went_idle();
    return false;
  }
  dispatch(node);
  return true;
}

bool EventLoop::try_run_one() { return pump_one(); }

void EventLoop::went_idle() noexcept {
  // Release: a waiter that reads busy_ clear also sees every dispatch's
  // counters. The fence pairs with the waiter's prepare_wait-then-fence:
  // either it reads busy_ clear or this load sees it waiting.
  busy_.store(false, std::memory_order_release);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (idle_waiters_.has_waiters()) idle_waiters_.notify_all();
}

void EventLoop::run() {
  ThreadBinding bind(this);
  running_.store(true, std::memory_order_release);
  // The EDT's main loop is the join every member thread runs: pump events
  // until none is left, climb the spin ladder, park on this thread's
  // Parker until a post, a due timer or stop() wakes it.
  StopRequested stop_requested{*this};
  exec::JoinStats stats;
  exec::join(stop_requested, this, std::nullopt, stats);
  running_.store(false, std::memory_order_release);
}

void EventLoop::stop() {
  events_.close();  // later posts are refused; queued events are discarded
  stop_requested_.store(true, std::memory_order_seq_cst);
  wake_parked_members();       // the EDT, parked in its join
  idle_waiters_.notify_all();  // wait_until_idle() returns on stop
  const std::string prefix(name());
  common::Tracer::instance().set_counter(
      prefix + ".dispatched", dispatched_.load(std::memory_order_relaxed));
  counters_.publish(prefix);
}

void EventLoop::wait_until_idle() {
  for (;;) {
    const auto key = idle_waiters_.prepare_wait();
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (stop_requested_.load(std::memory_order_seq_cst) ||
        (events_.size() == 0 && !busy_.load(std::memory_order_acquire))) {
      idle_waiters_.cancel_wait();
      return;
    }
    idle_waiters_.commit_wait(key);
  }
}

void EventLoop::reset_stats() {
  dispatched_.store(0, std::memory_order_relaxed);
  busy_ns_.store(0, std::memory_order_relaxed);
  counters_.reset();
  delay_hist_.reset();
}

}  // namespace evmp::event
