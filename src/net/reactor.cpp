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

Reactor::~Reactor() {
  stop();
  // Posts accepted before a stop() that found no thread to run them are
  // destroyed unrun.
  tasks_.drain([](exec::TaskNode* node) { (void)exec::unwrap(node); });
}

void Reactor::start() {
  if (running_.load(std::memory_order_acquire)) return;
  thread_ = std::jthread([this] { run(); });
  running_.store(true, std::memory_order_release);
}

void Reactor::stop() {
  // Close before raising the flag: new posts are refused from here on,
  // and the loop's final drain, which starts only once it sees the flag,
  // reads a count that includes every accepted post.
  tasks_.close();
  if (stop_requested_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  wake();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

void Reactor::post(exec::Task task) {
  if (!try_post(std::move(task))) {
    EVMP_LOG_WARN << "task posted to stopped reactor '" << name()
                  << "' was dropped";
  }
}

bool Reactor::try_post(exec::Task task) {
  exec::TaskNode* node = exec::make_node(std::move(task));
  if (!tasks_.push(node)) {
    (void)exec::unwrap(node);
    return false;
  }
  wake();
  return true;
}

bool Reactor::try_run_one() {
  if (!owns_current_thread()) return false;
  exec::TaskNode* node = nullptr;
  if (tasks_.try_pop(node) != exec::TaskList::Pop::kTaken) return false;
  run_node(node);
  return true;
}

void Reactor::run_node(exec::TaskNode* node) {
  exec::Task task = exec::unwrap(node);
  run_task(task);
  stats_.add(&ReactorStats::tasks_run);
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
      stats_.add(&ReactorStats::timers_scheduled);
    }));
    return;
  }
  timers_.push(deadline, std::move(cb));
  stats_.add(&ReactorStats::timers_scheduled);
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
    stats_.add(&ReactorStats::timers_fired);
  }
}

int Reactor::timer_wait_ms() const noexcept {
  if (timers_.empty()) return -1;
  const auto gap = timers_.next_due() - common::now();
  if (gap <= common::Nanos{0}) return 0;
  const auto ms = (gap + common::Nanos{999'999}) / common::Nanos{1'000'000};
  return static_cast<int>(std::min<std::int64_t>(ms, 60'000));
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
  // A post still between its exchange and its link reads as empty here;
  // its wake() follows the link, so the loop comes back for it.
  exec::TaskNode* node = nullptr;
  while (tasks_.try_pop(node) == exec::TaskList::Pop::kTaken) run_node(node);
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
    stats_.add(&ReactorStats::epoll_waits);
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr) {
        std::uint64_t value = 0;
        [[maybe_unused]] const ssize_t got =
            ::read(wake_fd_.get(), &value, sizeof(value));
        // Clear before the next drain_tasks(): a producer that saw the
        // flag still set linked its task before its exchange, and this
        // RMW reads from that exchange, so the drain sees the task.
        wake_pending_.exchange(false);
        stats_.add(&ReactorStats::wakeups);
        continue;
      }
      stats_.add(&ReactorStats::fd_events);
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
  // stop() closed the list before raising the flag: drain until the count
  // reads zero, waiting out producers still linking, so every accepted
  // post runs.
  tasks_.drain([this](exec::TaskNode* node) { run_node(node); });
}

}  // namespace evmp::net
