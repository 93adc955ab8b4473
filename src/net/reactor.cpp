#include "net/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <optional>
#include <utility>

#include "common/logging.hpp"

namespace evmp::net {

Reactor::Reactor(std::string reactor_name)
    : Executor(std::move(reactor_name)),
      epoll_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  // The wake eventfd is the one level-triggered member of the set: a
  // pending wake must keep epoll_wait from blocking until it is consumed,
  // with no edge-rearm subtleties. data.ptr == nullptr marks it.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev);
}

Reactor::~Reactor() { stop(); }

void Reactor::start() {
  if (running_.load(std::memory_order_acquire)) return;
  thread_ = std::jthread([this] { run(); });
  running_.store(true, std::memory_order_release);
}

void Reactor::stop() {
  if (stop_requested_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // Close first: new posts are refused (warned) from here on, while
  // already-queued tasks stay poppable for the loop's final drain.
  tasks_.close();
  wake();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

void Reactor::post(exec::Task task) {
  if (!tasks_.push(std::move(task))) {
    EVMP_LOG_WARN << "task posted to stopped reactor '" << name()
                  << "' was dropped";
    return;
  }
  wake();
}

void Reactor::post_batch(std::span<exec::Task> tasks) {
  if (tasks.empty()) return;
  if (tasks_.push_batch(tasks) == 0) {
    EVMP_LOG_WARN << "batch of " << tasks.size() << " tasks posted to "
                  << "stopped reactor '" << name() << "' was dropped";
    return;
  }
  wake();
}

bool Reactor::try_post(exec::Task task) {
  if (!tasks_.push(std::move(task))) return false;
  wake();
  return true;
}

bool Reactor::try_run_one() {
  if (!owns_current_thread()) return false;
  auto task = tasks_.try_pop();
  if (!task) return false;
  run_task(*task);
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Reactor::add_fd(int fd, bool want_read, bool want_write,
                     FdHandler* handler) {
  epoll_event ev{};
  ev.events = EPOLLET | EPOLLRDHUP | (want_read ? EPOLLIN : 0u) |
              (want_write ? EPOLLOUT : 0u);
  ev.data.ptr = handler;
  return ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool Reactor::mod_fd(int fd, bool want_read, bool want_write,
                     FdHandler* handler) {
  epoll_event ev{};
  ev.events = EPOLLET | EPOLLRDHUP | (want_read ? EPOLLIN : 0u) |
              (want_write ? EPOLLOUT : 0u);
  ev.data.ptr = handler;
  return ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &ev) == 0;
}

void Reactor::del_fd(int fd) {
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

// --- timers ----------------------------------------------------------------

void Reactor::add_timer(common::Nanos delay, exec::Task cb) {
  const common::TimePoint deadline =
      common::now() + std::max(common::Nanos{0}, delay);
  if (!owns_current_thread()) {
    post(exec::Task([this, deadline, cb = std::move(cb)]() mutable {
      timers_.push(deadline, std::move(cb));
      timers_scheduled_.fetch_add(1, std::memory_order_relaxed);
    }));
    return;
  }
  timers_.push(deadline, std::move(cb));
  timers_scheduled_.fetch_add(1, std::memory_order_relaxed);
}

void Reactor::fire_due_timers() {
  if (timers_.empty()) return;
  // Fire only what was due when the sweep began: a callback that re-arms
  // itself, even with zero delay, is stamped later and waits for the next
  // loop iteration, so posted tasks and fd events keep their turn. The
  // budget bounds the sweep even if the clock has not advanced.
  const common::TimePoint sweep_start = common::now();
  for (std::size_t budget = timers_.size(); budget > 0; --budget) {
    std::optional<exec::Task> task = timers_.pop_due(sweep_start);
    if (!task) break;
    run_task(*task);
    timers_fired_.fetch_add(1, std::memory_order_relaxed);
  }
}

int Reactor::timer_wait_ms() const noexcept {
  if (timers_.empty()) return -1;
  const auto gap = timers_.next_due() - common::now();
  if (gap <= common::Nanos{0}) return 0;
  const auto ms = (gap + common::Nanos{999'999}) / common::Nanos{1'000'000};
  return static_cast<int>(std::min<std::int64_t>(ms, 60'000));
}

ReactorStats Reactor::stats() const noexcept {
  ReactorStats s;
  s.epoll_waits = epoll_waits_.load(std::memory_order_relaxed);
  s.fd_events = fd_events_.load(std::memory_order_relaxed);
  s.wakeups = wakeups_.load(std::memory_order_relaxed);
  s.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  s.timers_scheduled = timers_scheduled_.load(std::memory_order_relaxed);
  s.timers_fired = timers_fired_.load(std::memory_order_relaxed);
  return s;
}

void Reactor::wake() {
  wake_parked_members();  // the reactor thread may be parked in an await
  // Skip the syscall while a previous wake is still unconsumed; the
  // seq_cst exchange pairs with the loop's flag clear (see run()) so a
  // push is never stranded behind a cleared flag.
  if (wake_pending_.exchange(true)) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_.get(), &one, sizeof(one));
}

void Reactor::drain_tasks() {
  while (auto task = tasks_.try_pop()) {
    run_task(*task);
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Reactor::run() {
  ThreadBinding bind(this);
  constexpr int kMaxEvents = 256;
  epoll_event events[kMaxEvents];
  for (;;) {
    drain_tasks();
    if (stop_requested_.load(std::memory_order_acquire)) break;
    fire_due_timers();
    const int n =
        ::epoll_wait(epoll_.get(), events, kMaxEvents, timer_wait_ms());
    if (n < 0) {
      if (errno == EINTR) continue;
      EVMP_LOG_WARN << "reactor '" << name() << "' epoll_wait failed: errno "
                    << errno;
      break;
    }
    epoll_waits_.fetch_add(1, std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr) {
        std::uint64_t value = 0;
        [[maybe_unused]] const ssize_t got =
            ::read(wake_fd_.get(), &value, sizeof(value));
        // Clear before the next drain_tasks(): a producer that saw the
        // flag still set pushed before this clear, so the drain sees it.
        wake_pending_.store(false);
        wakeups_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      fd_events_.fetch_add(1, std::memory_order_relaxed);
      auto* handler = static_cast<FdHandler*>(events[i].data.ptr);
      const std::uint32_t ev = events[i].events;
      if ((ev & (EPOLLERR | EPOLLHUP)) != 0) {
        handler->on_error();
        continue;
      }
      if ((ev & (EPOLLIN | EPOLLRDHUP)) != 0) handler->on_readable();
      if ((ev & EPOLLOUT) != 0) handler->on_writable();
    }
  }
  drain_tasks();
}

}  // namespace evmp::net
