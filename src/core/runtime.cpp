#include "core/runtime.hpp"

#include <optional>
#include <sstream>
#include <thread>
#include <utility>

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
    stats_.add(&RuntimeStats::inline_fast_path);
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
  stats_.add(&RuntimeStats::posted);
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
      stats_.add(&RuntimeStats::default_waits);
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
    stats_.add(&RuntimeStats::inline_fast_path, blocks.size());
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
  stats_.add(&RuntimeStats::posted, handles.size());
  stats_.add(&RuntimeStats::batch_posts);

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
      stats_.add(&RuntimeStats::default_waits, handles.size());
      for (const auto& handle : handles) {
        verified_wait(handle.state(), executor);
      }
      return handles;
  }
  return handles;  // unreachable
}

namespace {
thread_local int t_await_depth = 0;

/// Open pumping barriers on this thread; exception-safe (a tag join
/// rethrows its group's error).
class DepthScope {
 public:
  explicit DepthScope(bool pumping) noexcept : pumping_(pumping) {
    if (pumping_) ++t_await_depth;
  }
  ~DepthScope() {
    if (pumping_) --t_await_depth;
  }
  DepthScope(const DepthScope&) = delete;
  DepthScope& operator=(const DepthScope&) = delete;

 private:
  bool pumping_;
};
}  // namespace

int Runtime::await_depth() noexcept { return t_await_depth; }

template <class Wait, class Edge>
exec::JoinStats Runtime::logical_barrier(Wait&& wait, Edge&& edge,
                                         const char* what) {
  exec::Executor* helper = exec::Executor::current();
  if (helper != nullptr && t_await_depth >= kMaxAwaitDepth) {
    stats_.add(&RuntimeStats::await_depth_capped);
    helper = nullptr;
  }
  const DepthScope depth(helper != nullptr);
  exec::JoinStats stats;

  // EVMP_VERIFY: record the barrier in the wait-for graph. A pumping
  // member thread's edge is *soft* — the pump keeps its executor live, so
  // the wait cannot saturate it — but a foreign or depth-capped thread
  // parks for real.
  analysis::WaitGraph* graph = analysis::WaitGraph::global();
  if (graph == nullptr) {
    wait(helper, std::nullopt, stats);
  } else {
    const analysis::WaitGraph::Waiter waiter = current_waiter();
    auto [to, pending] = edge();
    const analysis::WaitScope scope(*graph, waiter, to, pending, what,
                                    /*hard=*/helper == nullptr);
    std::optional<common::TimePoint> deadline;
    if (graph->timeout().count() > 0) {
      deadline = common::now() + graph->timeout();
    }
    if (!wait(helper, deadline, stats)) {
      graph->fail_timeout(waiter, to, what);
      wait(helper, std::nullopt, stats);  // a test handler swallowed it
    }
  }
  if (stats.parks != 0) {
    stats_.add(&RuntimeStats::await_parks, stats.parks);
  }
  return stats;
}

void Runtime::await_completion(const exec::CompletionRef& state,
                               exec::Executor* target) {
  stats_.add(&RuntimeStats::awaits);
  // "while B is not finished do T.processAnotherEventHandler()": a member
  // thread drains its own executor's queue (the EDT dispatches other
  // events; a pool thread runs other tasks) and parks when it is empty.
  const exec::JoinStats stats = logical_barrier(
      [&](exec::Executor* helper, std::optional<common::TimePoint> deadline,
          exec::JoinStats& js) {
        return exec::join(*state, helper, deadline, js);
      },
      [&] {
        return std::pair{target != nullptr ? std::string(target->name())
                                           : std::string("<completion>"),
                         target != nullptr ? target->pending() : 0};
      },
      "await logical barrier");
  if (stats.pumped != 0) {
    stats_.add(&RuntimeStats::await_pumped, stats.pumped);
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
  TagGroup& group = tags_.group(tag);
  // Tag nodes never have outgoing edges, so they cannot sit on a wait-for
  // cycle themselves.
  logical_barrier(
      [&](exec::Executor* helper, std::optional<common::TimePoint> deadline,
          exec::JoinStats& js) { return group.wait(helper, deadline, js); },
      [&] {
        return std::pair{"tag:" + std::string(tag),
                         static_cast<std::size_t>(group.in_flight())};
      },
      "wait(name-tag)");
  if (analysis::RaceCheck* rc = analysis::RaceCheck::active()) {
    rc->on_tag_join(&group);
  }
}

TargetRef Runtime::target(std::string tname) {
  return TargetRef(*this, std::move(tname));
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
