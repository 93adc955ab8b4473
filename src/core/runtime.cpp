#include "core/runtime.hpp"

#include <chrono>
#include <optional>
#include <sstream>
#include <thread>

#include "analysis/wait_graph.hpp"
#include "common/tracing.hpp"
#include "core/target.hpp"

namespace evmp {

namespace {

/// Wait-for-graph identity of the calling thread: its executor (with the
/// concurrency that decides saturation) or a synthetic external node that
/// can never be blocked *on* and therefore never joins a cycle.
analysis::WaitGraph::Waiter current_waiter() {
  if (exec::Executor* self = exec::Executor::current()) {
    return {std::string(self->name()), self->concurrency()};
  }
  std::ostringstream name;
  name << "external:" << std::this_thread::get_id();
  return {name.str(), 0};
}

}  // namespace

Runtime::Runtime() = default;

Runtime::~Runtime() { clear(); }

void Runtime::register_edt(std::string tname, event::EventLoop& loop) {
  std::scoped_lock lk(mu_);
  targets_[std::move(tname)] = TargetEntry{&loop, nullptr};
}

exec::ThreadPoolExecutor& Runtime::create_worker(std::string tname, int m) {
  auto pool = std::make_shared<exec::ThreadPoolExecutor>(
      tname, static_cast<std::size_t>(m < 1 ? 1 : m));
  exec::ThreadPoolExecutor& ref = *pool;
  std::scoped_lock lk(mu_);
  targets_[std::move(tname)] = TargetEntry{pool.get(), pool};
  return ref;
}

exec::WorkStealingExecutor& Runtime::create_stealing_worker(std::string tname,
                                                            int m) {
  auto pool = std::make_shared<exec::WorkStealingExecutor>(
      tname, static_cast<std::size_t>(m < 1 ? 1 : m));
  exec::WorkStealingExecutor& ref = *pool;
  std::scoped_lock lk(mu_);
  targets_[std::move(tname)] = TargetEntry{pool.get(), pool};
  return ref;
}

exec::SimulatedDeviceExecutor& Runtime::register_device(
    int id, exec::SimulatedDeviceExecutor::Config cfg) {
  const std::string tname = "device:" + std::to_string(id);
  auto dev = std::make_shared<exec::SimulatedDeviceExecutor>(tname, id, cfg);
  exec::SimulatedDeviceExecutor& ref = *dev;
  std::scoped_lock lk(mu_);
  targets_[tname] = TargetEntry{dev.get(), dev};
  return ref;
}

void Runtime::register_executor(std::string tname, exec::Executor& executor) {
  std::scoped_lock lk(mu_);
  targets_[std::move(tname)] = TargetEntry{&executor, nullptr};
}

void Runtime::unregister(std::string_view tname) {
  std::shared_ptr<exec::Executor> owned;
  {
    std::scoped_lock lk(mu_);
    auto it = targets_.find(tname);
    if (it == targets_.end()) return;
    owned = std::move(it->second.owned);  // destroy outside the lock
    targets_.erase(it);
  }
}

void Runtime::clear() {
  std::map<std::string, TargetEntry, std::less<>> drained;
  {
    std::scoped_lock lk(mu_);
    drained.swap(targets_);
  }
  // Owned executors shut down here, outside the registry lock, so their
  // draining tasks may still resolve other targets.
  drained.clear();
  common::Tracer::instance().set_counter("runtime.tags_created",
                                         tags_.created());
}

exec::Executor& Runtime::resolve(std::string_view tname) const {
  std::scoped_lock lk(mu_);
  auto it = targets_.find(tname);
  if (it == targets_.end()) throw TargetNotFound(tname);
  return *it->second.executor;
}

bool Runtime::has_target(std::string_view tname) const {
  std::scoped_lock lk(mu_);
  return targets_.find(tname) != targets_.end();
}

void Runtime::set_default_target(std::string tname) {
  std::scoped_lock lk(mu_);
  default_target_ = std::move(tname);
}

std::string Runtime::default_target() const {
  std::scoped_lock lk(mu_);
  return default_target_;
}

Runtime::DispatchPlan Runtime::plan_dispatch(std::string_view tname,
                                             Async mode,
                                             std::string_view tag) {
  DispatchPlan plan;

  // Directives disabled: the "unsupported compiler" semantics — the block
  // is plain sequential code on the encountering thread.
  if (!enabled()) {
    plan.run_inline = true;
    return plan;
  }

  exec::Executor& executor = resolve(tname);

  // Algorithm 1, line 6: T ∈ E → execute synchronously by T. The directive
  // is "simply ignored" (thread-context awareness).
  if (executor.owns_current_thread()) {
    stats_.inline_fast_path.fetch_add(1, std::memory_order_relaxed);
    plan.run_inline = true;
    return plan;
  }

  // Line 8: post B to E asynchronously, with completion tracking. The
  // state comes from the thread-cached pool; kNameAs additionally enters
  // the (sharded, lock-free-joining) tag group before the post so a racing
  // wait_tag cannot observe an empty group.
  plan.executor = &executor;
  plan.state = exec::CompletionState::make();
  if (mode == Async::kNameAs) {
    plan.group = &tags_.group(tag);
    plan.group->enter();
  }
  plan.report_unhandled = (mode == Async::kNowait);
  if (analysis::RaceCheck* rc = analysis::RaceCheck::active()) {
    plan.race_birth = rc->on_dispatch(executor.name());
  }
  return plan;
}

exec::TaskHandle Runtime::finish_dispatch(exec::CompletionRef state,
                                          Async mode,
                                          exec::Executor* executor) {
  stats_.posted.fetch_add(1, std::memory_order_relaxed);
  switch (mode) {
    case Async::kNowait:
    case Async::kNameAs:
      // Lines 10-11: continue with the statements after the block.
      return exec::TaskHandle(std::move(state));
    case Async::kAwait:
      // Lines 13-16: logical barrier.
      await_completion(state, executor);
      return exec::TaskHandle(std::move(state));
    case Async::kDefault:
      // Line 17: plain wait (standard `target` behaviour).
      stats_.default_waits.fetch_add(1, std::memory_order_relaxed);
      verified_wait(state, *executor);
      return exec::TaskHandle(std::move(state));
  }
  return exec::TaskHandle(std::move(state));  // unreachable
}

void Runtime::verified_wait(const exec::CompletionRef& state,
                            exec::Executor& target) {
  analysis::WaitGraph* graph = analysis::WaitGraph::global();
  if (graph == nullptr) {
    state->wait();
  } else {
    const analysis::WaitGraph::Waiter self = current_waiter();
    const char* what = "default-mode dispatch";
    const std::string to(target.name());
    analysis::WaitScope scope(*graph, self, to, target.pending(), what,
                              /*hard=*/true);
    if (graph->timeout().count() <= 0) {
      state->wait();
    } else if (!state->wait_for(graph->timeout())) {
      graph->fail_timeout(self, to, what);
      state->wait();  // reached only when a test handler swallowed the report
    }
  }
  // EVMP_RACECHECK: the block completed before this wait returned — join
  // its parked clock into the waiting thread.
  if (analysis::RaceCheck* rc = analysis::RaceCheck::active()) {
    rc->on_join(state.get());
  }
}

std::vector<exec::TaskHandle> Runtime::invoke_target_batch(
    std::string_view tname, std::vector<exec::Task> blocks, Async mode,
    std::string_view tag) {
  std::vector<exec::TaskHandle> handles;
  if (blocks.empty()) return handles;

  // Disabled runtime: sequential semantics, block by block.
  if (!enabled()) {
    for (auto& block : blocks) block();
    return handles;
  }

  exec::Executor& executor = resolve(tname);

  // Thread-context awareness applies to the whole burst: member threads run
  // it synchronously in order (Algorithm 1 line 6, N times).
  if (executor.owns_current_thread()) {
    stats_.inline_fast_path.fetch_add(blocks.size(),
                                      std::memory_order_relaxed);
    for (auto& block : blocks) block();
    return handles;
  }

  // Wrap every block with the same completion/tag/exception protocol as
  // invoke_target_block, then submit the burst in one post_batch call.
  handles.reserve(blocks.size());
  std::vector<exec::Task> wrapped;
  wrapped.reserve(blocks.size());
  const bool report_unhandled = (mode == Async::kNowait);
  TagGroup* group = nullptr;
  if (mode == Async::kNameAs) group = &tags_.group(tag);
  analysis::RaceCheck* rc = analysis::RaceCheck::active();
  for (auto& block : blocks) {
    exec::CompletionRef state = exec::CompletionState::make();
    handles.emplace_back(state);
    if (group != nullptr) group->enter();
    const std::uint64_t birth =
        rc != nullptr ? rc->on_dispatch(executor.name()) : 0;
    wrapped.emplace_back([state = std::move(state), group, report_unhandled,
                          ex = &executor, birth,
                          fn = std::move(block)]() mutable {
      run_dispatched_block(fn, state, group, ex, report_unhandled, birth);
    });
  }
  executor.post_batch(wrapped);
  stats_.posted.fetch_add(handles.size(), std::memory_order_relaxed);
  stats_.batch_posts.fetch_add(1, std::memory_order_relaxed);

  switch (mode) {
    case Async::kNowait:
    case Async::kNameAs:
      return handles;
    case Async::kAwait:
      for (const auto& handle : handles) {
        await_completion(handle.state(), &executor);
      }
      return handles;
    case Async::kDefault:
      stats_.default_waits.fetch_add(handles.size(),
                                     std::memory_order_relaxed);
      for (const auto& handle : handles) {
        verified_wait(handle.state(), executor);
      }
      return handles;
  }
  return handles;  // unreachable
}

void Runtime::await_completion(const exec::CompletionRef& state,
                               exec::Executor* target) {
  stats_.awaits.fetch_add(1, std::memory_order_relaxed);
  exec::Executor* self = exec::Executor::current();

  // EVMP_VERIFY: record the barrier in the wait-for graph. From a member
  // thread the edge is *soft* — the pump below keeps this executor live,
  // so the wait cannot saturate it — but a foreign thread parks for real.
  analysis::WaitGraph* graph = analysis::WaitGraph::global();
  std::optional<analysis::WaitScope> scope;
  std::optional<std::chrono::steady_clock::time_point> deadline;
  analysis::WaitGraph::Waiter waiter;
  std::string to;
  const char* what = "await logical barrier";
  if (graph != nullptr) {
    waiter = current_waiter();
    to = target != nullptr ? std::string(target->name()) : "<completion>";
    scope.emplace(*graph, waiter, to, target != nullptr ? target->pending() : 0,
                  what, /*hard=*/self == nullptr);
    if (graph->timeout().count() > 0) {
      deadline = std::chrono::steady_clock::now() + graph->timeout();
    }
  }

  if (self == nullptr) {
    // Foreign thread: nothing to pump, so park on the completion futex and
    // wake exactly when the block finishes (no polling quantum).
    if (deadline && !state->wait_for(graph->timeout())) {
      graph->fail_timeout(waiter, to, what);
    }
    state->wait();
    if (analysis::RaceCheck* rc = analysis::RaceCheck::active()) {
      rc->on_join(state.get());
    }
    state->rethrow_if_error();
    return;
  }
  std::uint64_t pumped = 0;
  while (!state->done()) {
    // "while B is not finished do T.processAnotherEventHandler()":
    // a member thread drains its own executor's queue (the EDT dispatches
    // other events; a pool thread runs other tasks).
    if (self->try_run_one()) {
      ++pumped;
      continue;
    }
    // Nothing pending right now: block briefly instead of busy-spinning,
    // then re-check both conditions.
    state->wait_for(std::chrono::microseconds{200});
    if (deadline && std::chrono::steady_clock::now() >= *deadline) {
      graph->fail_timeout(waiter, to, what);
      deadline.reset();  // test handlers swallow the report; don't re-fire
    }
  }
  if (pumped != 0) {
    stats_.await_pumped.fetch_add(pumped, std::memory_order_relaxed);
  }
  if (analysis::RaceCheck* rc = analysis::RaceCheck::active()) {
    rc->on_join(state.get());
  }
  state->rethrow_if_error();
}

void Runtime::await_handle(const exec::TaskHandle& handle) {
  if (!handle.valid()) return;
  await_completion(handle.state());
}

void Runtime::wait_tag(std::string_view tag) {
  exec::Executor* self = exec::Executor::current();
  std::function<bool()> help;
  if (self != nullptr) help = [self] { return self->try_run_one(); };
  TagGroup& group = tags_.group(tag);

  analysis::WaitGraph* graph = analysis::WaitGraph::global();
  if (graph == nullptr) {
    group.wait(help);
    if (analysis::RaceCheck* rc = analysis::RaceCheck::active()) {
      rc->on_tag_join(&group);
    }
    return;
  }
  // Tag nodes never have outgoing edges, so they cannot sit on a wait-for
  // cycle themselves; a member thread's join is soft (it pumps), a foreign
  // thread's join is hard. The timeout watchdog rides the help callback.
  const analysis::WaitGraph::Waiter waiter = current_waiter();
  const std::string to = "tag:" + std::string(tag);
  const char* what = "wait(name-tag)";
  const auto in_flight = group.in_flight();
  analysis::WaitScope scope(
      *graph, waiter, to,
      in_flight > 0 ? static_cast<std::size_t>(in_flight) : 0, what,
      /*hard=*/self == nullptr);
  if (graph->timeout().count() > 0) {
    const auto deadline = std::chrono::steady_clock::now() + graph->timeout();
    std::function<bool()> inner = std::move(help);
    help = [graph, waiter, to, what, deadline, inner] {
      if (std::chrono::steady_clock::now() >= deadline) {
        graph->fail_timeout(waiter, to, what);
      }
      return inner && inner();
    };
  }
  group.wait(help);
  if (analysis::RaceCheck* rc = analysis::RaceCheck::active()) {
    rc->on_tag_join(&group);
  }
}

TargetRef Runtime::target(std::string tname) {
  return TargetRef(*this, std::move(tname));
}

RuntimeStats Runtime::stats() const {
  RuntimeStats out;
  out.inline_fast_path =
      stats_.inline_fast_path.load(std::memory_order_relaxed);
  out.posted = stats_.posted.load(std::memory_order_relaxed);
  out.batch_posts = stats_.batch_posts.load(std::memory_order_relaxed);
  out.awaits = stats_.awaits.load(std::memory_order_relaxed);
  out.await_pumped = stats_.await_pumped.load(std::memory_order_relaxed);
  out.default_waits = stats_.default_waits.load(std::memory_order_relaxed);
  return out;
}

void Runtime::reset_stats() {
  stats_.inline_fast_path.store(0, std::memory_order_relaxed);
  stats_.posted.store(0, std::memory_order_relaxed);
  stats_.batch_posts.store(0, std::memory_order_relaxed);
  stats_.awaits.store(0, std::memory_order_relaxed);
  stats_.await_pumped.store(0, std::memory_order_relaxed);
  stats_.default_waits.store(0, std::memory_order_relaxed);
}

Runtime& rt() {
  static Runtime instance;
  return instance;
}

void device_transfer_to(std::string_view tname, std::uint64_t bytes) {
  if (auto* dev = dynamic_cast<exec::SimulatedDeviceExecutor*>(
          &rt().resolve(tname))) {
    dev->transfer_to_device(bytes);
  }
}

void device_transfer_from(std::string_view tname, std::uint64_t bytes) {
  if (auto* dev = dynamic_cast<exec::SimulatedDeviceExecutor*>(
          &rt().resolve(tname))) {
    dev->transfer_from_device(bytes);
  }
}

}  // namespace evmp
