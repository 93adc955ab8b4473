#include "executor/executor.hpp"

#include <exception>

#include "common/event_count.hpp"
#include "common/logging.hpp"
#include "common/sync.hpp"
#include "common/tracing.hpp"

namespace evmp::exec {

namespace {

thread_local Executor* t_current_executor = nullptr;

void default_unhandled(std::string_view executor_name, std::exception_ptr ep) {
  try {
    if (ep) std::rethrow_exception(ep);
  } catch (const std::exception& e) {
    EVMP_LOG_ERROR << "unhandled exception in fire-and-forget task on '"
                   << executor_name << "': " << e.what();
  } catch (...) {
    EVMP_LOG_ERROR << "unhandled non-std exception in fire-and-forget task on '"
                   << executor_name << "'";
  }
}

std::atomic<UnhandledExceptionHook> g_hook{&default_unhandled};

}  // namespace

void set_unhandled_exception_hook(UnhandledExceptionHook hook) noexcept {
  g_hook.store(hook ? hook : &default_unhandled, std::memory_order_relaxed);
}

UnhandledExceptionHook unhandled_exception_hook() noexcept {
  return g_hook.load(std::memory_order_relaxed);
}

Executor* Executor::current() noexcept { return t_current_executor; }

void Executor::run_task(Task& task) noexcept {
  const bool tracing = common::Tracer::instance().enabled();
  const common::TimePoint start = tracing ? common::now() : common::TimePoint{};
  try {
    task();
  } catch (...) {
    unhandled_exception_hook()(name_, std::current_exception());
  }
  executed_.fetch_add(1, std::memory_order_relaxed);
  if (tracing) {
    common::Tracer::instance().record(name_, "executor", start, common::now());
  }
}

Executor::ParkedMember::ParkedMember(Executor* executor,
                                     common::EventCount& parker) noexcept
    : executor_(executor), parker_(&parker) {
  if (executor_ == nullptr) return;
  common::SpinLockGuard lk(executor_->parked_lock_);
  next_ = executor_->parked_head_;
  executor_->parked_head_ = this;
  executor_->parked_count_.fetch_add(1, std::memory_order_seq_cst);
}

Executor::ParkedMember::~ParkedMember() {
  if (executor_ == nullptr) return;
  common::SpinLockGuard lk(executor_->parked_lock_);
  ParkedMember** link = &executor_->parked_head_;
  while (*link != this) link = &(*link)->next_;
  *link = next_;
  executor_->parked_count_.fetch_sub(1, std::memory_order_relaxed);
}

void Executor::notify_parked_members() noexcept {
  // Under the lock: a registration on a joiner's stack is unlinked only
  // under it, and parkers themselves are never freed.
  common::SpinLockGuard lk(parked_lock_);
  for (ParkedMember* m = parked_head_; m != nullptr; m = m->next_) {
    m->parker_->notify_all();
  }
}

Executor::ThreadBinding::ThreadBinding(Executor* e) noexcept
    : previous_(t_current_executor) {
  t_current_executor = e;
}

Executor::ThreadBinding::~ThreadBinding() { t_current_executor = previous_; }

}  // namespace evmp::exec
