#pragma once
// The EventMP runtime: virtual-target registry + Algorithm 1.
//
// This is the C++ analogue of PjRuntime in the paper. A *virtual target* is
// a named software-level executor sharing the host's memory (paper §III-A);
// the runtime dispatches target blocks to it according to the
// scheduling-property-clause (Table I) using Algorithm 1:
//
//   1. if the encountering thread already belongs to the target executor,
//      run the block synchronously (thread-context awareness);
//   2. otherwise post it asynchronously;
//   3. nowait / name_as: return immediately;
//   4. await: "logical barrier" — while the block is unfinished, the
//      encountering thread processes other queued handlers of its own
//      executor (nested event dispatch on the EDT, task stealing on pools);
//   5. default: block until finished.
//
// Dispatch cost model (DESIGN.md §7): invoke_target_block is a template so
// the user's callable is type-erased exactly once, already wrapped with the
// completion protocol — the wrapper (pooled completion handle + tag group +
// executor + flag + user capture) fits exec::Task's inline buffer, the
// completion state comes from a thread-cached pool, and the per-mode
// counters are relaxed atomics. Steady-state, a nowait dispatch performs no
// heap allocation. It takes resolve()'s registry mutex (mu_) for the target
// lookup; a name_as dispatch also locks one TagRegistry shard to find its
// group; the post itself takes no lock on any executor: EventLoop,
// ThreadPoolExecutor, net::Reactor and WorkStealingExecutor's foreign
// posts all push onto a lock-free common::MpscList run list.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "analysis/race_check.hpp"
#include "common/counters.hpp"
#include "core/async_mode.hpp"
#include "core/tag_group.hpp"
#include "event/event_loop.hpp"
#include "executor/completion.hpp"
#include "executor/executor.hpp"
#include "executor/simulated_device.hpp"
#include "executor/thread_pool_executor.hpp"
#include "executor/work_stealing_executor.hpp"

namespace evmp {

class TargetRef;  // fluent API, target.hpp

/// Error for directives naming an unregistered virtual target.
class TargetNotFound : public std::runtime_error {
 public:
  explicit TargetNotFound(std::string_view target_name)
      : std::runtime_error("virtual target not registered: " +
                           std::string(target_name)) {}
};

/// Per-mode invocation counters (ablation + test observability).
struct RuntimeStats {
  std::uint64_t inline_fast_path = 0;  ///< membership hit, ran synchronously
  std::uint64_t posted = 0;            ///< blocks posted to an executor
  std::uint64_t awaits = 0;
  std::uint64_t await_pumped = 0;      ///< handlers pumped inside awaits
  std::uint64_t await_parks = 0;       ///< parks in await / wait(name-tag)
  std::uint64_t await_depth_capped = 0;  ///< barriers at kMaxAwaitDepth
  std::uint64_t default_waits = 0;

  static constexpr common::CounterField<RuntimeStats> kFields[] = {
      {"inline_fast_path", &RuntimeStats::inline_fast_path},
      {"posted", &RuntimeStats::posted},
      {"awaits", &RuntimeStats::awaits},
      {"await_pumped", &RuntimeStats::await_pumped},
      {"await_parks", &RuntimeStats::await_parks},
      {"await_depth_capped", &RuntimeStats::await_depth_capped},
      {"default_waits", &RuntimeStats::default_waits},
  };
};

/// The EventMP runtime. Instantiable (tests create private runtimes); most
/// code uses the process-wide instance via evmp::rt().
class Runtime {
 public:
  Runtime();
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- Table II: virtual target registration ---------------------------
  /// Register an existing event loop as an EDT-type virtual target named
  /// `tname`. The loop must outlive its registration. Mirrors
  /// virtual_target_register_edt(tname) — in the paper the *calling* thread
  /// becomes the target; here the loop object carries that thread.
  void register_edt(std::string tname, event::EventLoop& loop);

  /// Create a worker-type virtual target: a thread pool with at most `m`
  /// threads, named `tname`. Mirrors virtual_target_create_worker(tname, m).
  /// Returns the backing executor (owned by the runtime).
  exec::ThreadPoolExecutor& create_worker(std::string tname, int m);

  /// Create a worker-type virtual target backed by the lock-free
  /// work-stealing pool instead of the central queue (scalability
  /// extension; see bench_ablation_pool). Semantically interchangeable
  /// with create_worker.
  exec::WorkStealingExecutor& create_stealing_worker(std::string tname,
                                                     int m);

  /// Create a simulated accelerator reachable as device(`id`). Fallback
  /// for the original `target device(n)` form on GPU-less hosts.
  exec::SimulatedDeviceExecutor& register_device(
      int id, exec::SimulatedDeviceExecutor::Config cfg = {});

  /// Register an arbitrary executor under a name (advanced/testing).
  /// Non-owning: the executor must outlive the registration.
  void register_executor(std::string tname, exec::Executor& executor);

  /// Remove a target by name (no-op if absent). Worker targets owned by the
  /// runtime are shut down and destroyed.
  void unregister(std::string_view tname);

  /// Unregister everything (shuts down owned workers).
  void clear();

  /// Look up a target's executor; throws TargetNotFound.
  exec::Executor& resolve(std::string_view tname) const;

  [[nodiscard]] bool has_target(std::string_view tname) const;

  // --- ICVs --------------------------------------------------------------
  /// default-target-var: target used by a directive with no
  /// target-property-clause (analogue of OpenMP's default-device-var).
  void set_default_target(std::string tname);
  [[nodiscard]] std::string default_target() const;

  /// Master switch: when disabled, every directive runs its block inline on
  /// the encountering thread — the "unsupported compiler ignores the
  /// directives" sequential semantics the model guarantees.
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  // --- Algorithm 1 --------------------------------------------------------
  /// Dispatch a target block to the named virtual target under `mode`.
  /// `tag` is required for Async::kNameAs and ignored otherwise. Returns a
  /// handle to the submission (empty if the block ran inline).
  ///
  /// Templated on the callable so the block is type-erased once, already
  /// inside its completion-protocol wrapper (small captures therefore ride
  /// the Task's inline buffer — no per-post allocation). Accepts anything
  /// invocable with no arguments, including a pre-erased exec::Task.
  template <class F, class = std::enable_if_t<
                         std::is_invocable_v<std::decay_t<F>&>>>
  exec::TaskHandle invoke_target_block(std::string_view tname, F&& block,
                                       Async mode = Async::kDefault,
                                       std::string_view tag = {}) {
    DispatchPlan plan = plan_dispatch(tname, mode, tag);
    if (plan.run_inline) {
      block();
      return {};
    }
    plan.executor->post(exec::Task(
        [state = plan.state, group = plan.group, ex = plan.executor,
         report = plan.report_unhandled, birth = plan.race_birth,
         fn = std::forward<F>(block)]() mutable {
          run_dispatched_block(fn, state, group, ex, report, birth);
        }));
    return finish_dispatch(std::move(plan.state), mode, plan.executor);
  }

  /// Shorthand for a directive with no target-property-clause: dispatch to
  /// the default target.
  template <class F, class = std::enable_if_t<
                         std::is_invocable_v<std::decay_t<F>&>>>
  exec::TaskHandle invoke_default(F&& block, Async mode = Async::kDefault,
                                  std::string_view tag = {}) {
    return invoke_target_block(default_target(), std::forward<F>(block),
                               mode, tag);
  }

  /// Generic await: apply the logical barrier to any completion handle —
  /// the calling thread processes other queued handlers of its own
  /// executor until `handle` is done, then rethrows the handle's
  /// exception if any. This is the integration point for asynchronous
  /// operations that occupy no thread while pending: see
  /// examples/async_download.cpp (a socket read on a net::Reactor).
  void await_handle(const exec::TaskHandle& handle);

  /// The wait(name-tag) clause: suspend until all name_as blocks tagged
  /// `tag` have finished. Member threads of an executor help by processing
  /// queued work while waiting. Rethrows the first exception of the group.
  void wait_tag(std::string_view tag);

  /// Nesting cap of the logical barrier. A member thread already inside
  /// this many pumping barriers (await or wait(name-tag)) does not pump
  /// in the next one: it parks on the awaited completion or tag alone,
  /// like a foreign thread, and EVMP_VERIFY records the wait as a hard
  /// edge (counted in RuntimeStats::await_depth_capped).
  static constexpr int kMaxAwaitDepth = 64;

  /// Pumping barriers currently open on the calling thread.
  [[nodiscard]] static int await_depth() noexcept;

  /// Fluent directive entry point: rt.target("worker").await([&]{...});
  TargetRef target(std::string tname);

  [[nodiscard]] RuntimeStats stats() const { return stats_.snapshot(); }
  void reset_stats() { stats_.reset(); }

 private:
  /// Everything plan-shaped Algorithm 1 decides before the block is
  /// wrapped: where to post, whether to run inline, the pooled completion
  /// state and (for name_as) the entered tag group.
  struct DispatchPlan {
    exec::Executor* executor = nullptr;
    TagGroup* group = nullptr;
    bool report_unhandled = false;
    bool run_inline = false;
    exec::CompletionRef state;
    std::uint64_t race_birth = 0;  ///< EVMP_RACECHECK birth token (0 = off)
  };

  /// Algorithm 1 lines 1-8; non-template so one instantiation serves
  /// every callable type.
  DispatchPlan plan_dispatch(std::string_view tname, Async mode,
                             std::string_view tag);

  /// Post-submission bookkeeping + per-mode join (lines 10-17). `executor`
  /// is the dispatch target (for the EVMP_VERIFY wait-for graph).
  exec::TaskHandle finish_dispatch(exec::CompletionRef state, Async mode,
                                   exec::Executor* executor);

  /// The completion protocol every dispatched block runs under.
  template <class F>
  static void run_dispatched_block(F& fn, exec::CompletionRef& state,
                                   TagGroup* group, exec::Executor* ex,
                                   bool report_unhandled,
                                   std::uint64_t race_birth = 0) {
    // EVMP_RACECHECK: join the dispatch edge before the block's first
    // access; park the clock *before* the completion is published so a
    // joiner always observes it.
    analysis::RaceCheck* rc =
        race_birth != 0 ? analysis::RaceCheck::active() : nullptr;
    if (rc != nullptr) rc->on_block_start(race_birth);
    try {
      fn();
      if (rc != nullptr) rc->on_block_finish(state.get(), group);
      state->set_done();
      if (group != nullptr) group->leave(nullptr);
    } catch (...) {
      auto ep = std::current_exception();
      if (rc != nullptr) rc->on_block_finish(state.get(), group);
      state->set_exception(ep);
      if (group != nullptr) group->leave(ep);
      // A nowait block has no join point; surface the failure via the hook
      // instead of dropping it.
      if (report_unhandled) {
        exec::unhandled_exception_hook()(ex->name(), ep);
      }
    }
  }

  /// The `await` logical barrier (Algorithm 1 lines 13-16). `target` is
  /// the executor the completion belongs to, when known (EVMP_VERIFY edge
  /// attribution; the barrier itself never needs it).
  void await_completion(const exec::CompletionRef& state,
                        exec::Executor* target = nullptr);

  /// The barrier shared by await and wait(name-tag). `wait(helper,
  /// deadline, stats)` joins the awaited object (false once the deadline
  /// passed); the caller's executor helps unless the thread is foreign or
  /// at kMaxAwaitDepth. `edge()` names the awaited side for the
  /// EVMP_VERIFY wait-for graph (called only with verification on); the
  /// graph's timeout becomes the park deadline.
  template <class Wait, class Edge>
  exec::JoinStats logical_barrier(Wait&& wait, Edge&& edge, const char* what);

  /// A kDefault hard wait, instrumented for the EVMP_VERIFY wait-for
  /// graph. With verification off this is exactly state->wait().
  void verified_wait(const exec::CompletionRef& state,
                     exec::Executor& target);

  struct TargetEntry {
    exec::Executor* executor = nullptr;        // non-owning view
    std::shared_ptr<exec::Executor> owned;     // set when runtime owns it
  };

  mutable std::mutex mu_;
  std::map<std::string, TargetEntry, std::less<>> targets_;
  std::string default_target_ = "worker";
  std::atomic<bool> enabled_{true};

  TagRegistry tags_;

  /// Hot-path counters: one relaxed RMW per bump (the seed serialised
  /// every dispatch through a stats mutex).
  common::Counters<RuntimeStats> stats_;
};

/// Process-wide runtime instance (lazily constructed, never destroyed before
/// static teardown of its clients).
Runtime& rt();

/// map(to:)/map(from:) support for device targets: model a host<->device
/// transfer of `bytes` on the named target of the global runtime. No-op when
/// the target is not a SimulatedDeviceExecutor (virtual targets share the
/// host memory, so their map clauses need no copies). Used by evmpcc output.
void device_transfer_to(std::string_view tname, std::uint64_t bytes);
void device_transfer_from(std::string_view tname, std::uint64_t bytes);

}  // namespace evmp
