#pragma once
// Fluent directive API: the C++ spelling of the extended target directive.
//
//   //#omp target virtual(worker) await          (paper, Figure 5/6)
// becomes
//   evmp::target("worker").await([&] { ... });
//
// Captures follow the paper's data-context-sharing semantics: `[&]` is
// `default(shared)` (virtual targets share the host memory, §III-B), while
// capturing by value reproduces `firstprivate`.

#include <string>
#include <utility>

#include "core/async_mode.hpp"
#include "core/runtime.hpp"

namespace evmp {

/// A bound (runtime, target-name) pair plus optional clauses; terminal
/// methods dispatch the block. Cheap to construct; not meant to be stored.
class TargetRef {
 public:
  TargetRef(Runtime& rt, std::string tname)
      : rt_(rt), tname_(std::move(tname)) {}

  /// The if-clause (Figure 5): when `condition` is false the block executes
  /// inline on the encountering thread, as plain sequential code.
  TargetRef&& if_clause(bool condition) && {
    condition_ = condition;
    return std::move(*this);
  }

  /// Default scheduling: dispatch and wait for completion.
  template <class F>
  exec::TaskHandle run(F&& block) && {
    return std::move(*this).dispatch(Async::kDefault, {},
                                     std::forward<F>(block));
  }

  /// nowait: fire-and-forget.
  template <class F>
  exec::TaskHandle nowait(F&& block) && {
    return std::move(*this).dispatch(Async::kNowait, {},
                                     std::forward<F>(block));
  }

  /// name_as(tag): fire, join later with evmp::wait_tag(tag).
  template <class F>
  exec::TaskHandle name_as(std::string_view tag, F&& block) && {
    return std::move(*this).dispatch(Async::kNameAs, tag,
                                     std::forward<F>(block));
  }

  /// await: continue after the block; pump other events while waiting.
  template <class F>
  exec::TaskHandle await(F&& block) && {
    return std::move(*this).dispatch(Async::kAwait, {},
                                     std::forward<F>(block));
  }

  // --- batched forms ------------------------------------------------------
  // A burst of target blocks submitted as one operation: it joins the
  // backing executor's run list as one chain with one wakeup (see
  // Runtime::invoke_target_batch). One handle per block, in order.

  /// nowait burst: fire-and-forget the whole batch.
  std::vector<exec::TaskHandle> nowait_batch(
      std::vector<exec::Task> blocks) && {
    return std::move(*this).dispatch_batch(Async::kNowait, {},
                                           std::move(blocks));
  }

  /// name_as(tag) burst: fire all, join the tag later with wait_tag(tag).
  std::vector<exec::TaskHandle> name_as_batch(
      std::string_view tag, std::vector<exec::Task> blocks) && {
    return std::move(*this).dispatch_batch(Async::kNameAs, tag,
                                           std::move(blocks));
  }

  /// await burst: logical barrier until every block in the batch finished.
  std::vector<exec::TaskHandle> await_batch(
      std::vector<exec::Task> blocks) && {
    return std::move(*this).dispatch_batch(Async::kAwait, {},
                                           std::move(blocks));
  }

 private:
  template <class F>
  exec::TaskHandle dispatch(Async mode, std::string_view tag, F&& block) && {
    if (!condition_) {
      // if(false): sequential execution on the encountering thread.
      block();
      return {};
    }
    // Forward the callable unerased: the runtime wraps it with the
    // completion protocol in ONE type erasure, so small captures ride the
    // Task's inline buffer (pre-erasing here would nest Task-in-Task and
    // force the wrapper to the heap on every dispatch).
    return rt_.invoke_target_block(tname_, std::forward<F>(block), mode, tag);
  }

  std::vector<exec::TaskHandle> dispatch_batch(
      Async mode, std::string_view tag, std::vector<exec::Task> blocks) && {
    if (!condition_) {
      for (auto& block : blocks) block();
      return {};
    }
    return rt_.invoke_target_batch(tname_, std::move(blocks), mode, tag);
  }

  Runtime& rt_;
  std::string tname_;
  bool condition_ = true;
};

// --- process-wide convenience wrappers (use evmp::rt()) -------------------

/// `#pragma omp target virtual(tname)` against the global runtime.
inline TargetRef target(std::string tname) {
  return rt().target(std::move(tname));
}

/// `#pragma omp target device(n)` against the global runtime.
inline TargetRef device(int id) {
  return rt().target("device:" + std::to_string(id));
}

/// The standalone wait(name-tag) clause against the global runtime.
inline void wait_tag(std::string_view tag) { rt().wait_tag(tag); }

}  // namespace evmp
