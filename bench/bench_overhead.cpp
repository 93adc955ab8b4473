// OV1 — directive invocation overhead microbenchmarks (google-benchmark).
//
// §I of the paper argues that for event-driven applications "the
// introduction of additional overhead for the concurrency of shorter
// computational spurts needs to be less of a dilemma"; these benchmarks
// quantify what one directive costs: the membership fast-path (directive
// ignored), a cross-thread post + join, the await pump loop, and the
// name_as/wait pair, against a raw function call baseline. The
// BM_PostRoundTrip family times a foreign post→run round trip on each
// executor layer.
//
// Two additions back the zero-allocation dispatch claim (DESIGN.md §7):
//  * a counting operator-new interposer reports heap allocations per
//    iteration as a benchmark counter (submitter-thread allocations only —
//    the directive-encountering thread is the latency-critical one);
//  * with --alloc-check=<budgets.json>, after the benchmarks run, a paced
//    steady-state loop measures allocations per nowait dispatch and exits
//    nonzero when the measured rate exceeds the budget file's
//    "allocs_per_nowait_dispatch" — the CI perf-smoke gate.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/event_count.hpp"
#include "core/runtime.hpp"
#include "core/target.hpp"
#include "event/event_loop.hpp"
#include "executor/thread_pool_executor.hpp"
#include "executor/work_stealing_executor.hpp"
#include "net/reactor.hpp"

// GCC pairs the replaced operator new (malloc-backed) with calls to the
// replaced sized/aligned deletes and flags them as mismatched even though
// every path ends in free(); silence that known false positive here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

// --- allocation-counting operator new/delete interposer -------------------
// Counts every heap allocation made by the *calling thread*. Replacing the
// global operator new is the standard-sanctioned interposition point; the
// counter is thread_local so worker-thread activity (which overlaps the
// timed region but is not on the dispatch critical path) never pollutes a
// measurement taken on the submitting thread.

namespace {
thread_local std::uint64_t t_alloc_count = 0;

std::uint64_t thread_allocs() noexcept { return t_alloc_count; }

void* counted_alloc(std::size_t size) noexcept {
  ++t_alloc_count;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) noexcept {
  ++t_alloc_count;
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size == 0 ? align : size) != 0) return nullptr;
  return p;
}
}  // namespace

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using evmp::Async;
using evmp::Runtime;
using evmp::common::read_budget;

/// Shared fixture state: one runtime with a worker pool.
struct BenchRuntime {
  BenchRuntime() { rt.create_worker("worker", 2); }
  ~BenchRuntime() { rt.clear(); }
  Runtime rt;
};

BenchRuntime& bench_rt() {
  static BenchRuntime instance;
  return instance;
}

/// Report submitter-thread allocations per iteration for the timed loop.
class AllocScope {
 public:
  explicit AllocScope(benchmark::State& state)
      : state_(state), before_(thread_allocs()) {}
  ~AllocScope() {
    const auto delta = thread_allocs() - before_;
    state_.counters["allocs/op"] = benchmark::Counter(
        static_cast<double>(delta), benchmark::Counter::kAvgIterations);
  }

 private:
  benchmark::State& state_;
  std::uint64_t before_;
};

void BM_RawFunctionCall(benchmark::State& state) {
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    sink.fetch_add(1, std::memory_order_relaxed);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RawFunctionCall);

void BM_DirectiveDisabled(benchmark::State& state) {
  auto& rt = bench_rt().rt;
  rt.set_enabled(false);
  std::atomic<std::uint64_t> sink{0};
  AllocScope allocs(state);
  for (auto _ : state) {
    rt.invoke_target_block(
        "worker", [&] { sink.fetch_add(1, std::memory_order_relaxed); },
        Async::kNowait);
  }
  rt.set_enabled(true);
}
BENCHMARK(BM_DirectiveDisabled);

void BM_MembershipFastPath(benchmark::State& state) {
  // Executed from inside the worker target: the directive is "ignored".
  auto& rt = bench_rt().rt;
  std::atomic<std::uint64_t> sink{0};
  // One outer submission per iteration would dominate, so each iteration
  // times a batch of 1000 inner fast-path invocations from a worker thread.
  for (auto _ : state) {
    rt.invoke_target_block(
        "worker",
        [&] {
          for (int i = 0; i < 1000; ++i) {
            rt.invoke_target_block(
                "worker",
                [&] { sink.fetch_add(1, std::memory_order_relaxed); },
                Async::kNowait);
          }
        },
        Async::kDefault);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MembershipFastPath);

void BM_CrossThreadDefaultWait(benchmark::State& state) {
  auto& rt = bench_rt().rt;
  std::atomic<std::uint64_t> sink{0};
  AllocScope allocs(state);
  for (auto _ : state) {
    rt.invoke_target_block(
        "worker", [&] { sink.fetch_add(1, std::memory_order_relaxed); },
        Async::kDefault);
  }
}
BENCHMARK(BM_CrossThreadDefaultWait);

void BM_CrossThreadAwait(benchmark::State& state) {
  auto& rt = bench_rt().rt;
  std::atomic<std::uint64_t> sink{0};
  AllocScope allocs(state);
  for (auto _ : state) {
    rt.invoke_target_block(
        "worker", [&] { sink.fetch_add(1, std::memory_order_relaxed); },
        Async::kAwait);
  }
}
BENCHMARK(BM_CrossThreadAwait);

void BM_NameAsPlusWaitTag(benchmark::State& state) {
  auto& rt = bench_rt().rt;
  std::atomic<std::uint64_t> sink{0};
  AllocScope allocs(state);
  for (auto _ : state) {
    rt.invoke_target_block(
        "worker", [&] { sink.fetch_add(1, std::memory_order_relaxed); },
        Async::kNameAs, "ov");
    rt.wait_tag("ov");
  }
}
BENCHMARK(BM_NameAsPlusWaitTag);

void BM_NowaitThroughput(benchmark::State& state) {
  // Submission cost only (join amortised once at the end).
  auto& rt = bench_rt().rt;
  std::atomic<std::uint64_t> sink{0};
  AllocScope allocs(state);
  for (auto _ : state) {
    rt.invoke_target_block(
        "worker", [&] { sink.fetch_add(1, std::memory_order_relaxed); },
        Async::kNameAs, "drain");
  }
  rt.wait_tag("drain");  // drain outside the measured loop
}
BENCHMARK(BM_NowaitThroughput);

void BM_NowaitBurst(benchmark::State& state) {
  // Dispatch-rate sweep: a burst of N nowait blocks submitted per
  // iteration via invoke_target_batch (one shard lock + one wakeup per
  // burst), joined per iteration so queue depth stays bounded. items/s is
  // the sustained dispatch rate at that burst size.
  auto& rt = bench_rt().rt;
  const int n = static_cast<int>(state.range(0));
  std::atomic<std::uint64_t> sink{0};
  AllocScope allocs(state);
  for (auto _ : state) {
    std::vector<evmp::exec::Task> blocks;
    blocks.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      blocks.emplace_back(
          [&] { sink.fetch_add(1, std::memory_order_relaxed); });
    }
    rt.invoke_target_batch("worker", std::move(blocks), Async::kNameAs,
                           "burst");
    rt.wait_tag("burst");
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NowaitBurst)->RangeMultiplier(4)->Range(1, 256);

void BM_EdtInvokeLater(benchmark::State& state) {
  evmp::event::EventLoop edt("edt");
  edt.start();
  std::atomic<std::uint64_t> sink{0};
  AllocScope allocs(state);
  for (auto _ : state) {
    edt.post([&] { sink.fetch_add(1, std::memory_order_relaxed); });
  }
  edt.wait_until_idle();
}
BENCHMARK(BM_EdtInvokeLater);

// Post→run round trip per executor layer: a foreign thread posts one task,
// spins until it has run, and repeats, so each iteration pays the target's
// wake from idle (or catches it still spinning). The poster's spin climbs
// the pause/yield ladder and then keeps yielding: a target thread the
// scheduler placed on the poster's CPU still gets to run without waiting
// for a scheduler tick. Reported per executor:
// edt = EventLoop, reactor = net::Reactor (eventfd wake), pool1 =
// ThreadPoolExecutor(1), steal1 = WorkStealingExecutor(1).
enum class RoundTripTarget { kEdt, kReactor, kPool1, kSteal1 };

std::unique_ptr<evmp::exec::Executor> start_round_trip_target(
    RoundTripTarget target) {
  switch (target) {
    case RoundTripTarget::kEdt: {
      auto edt = std::make_unique<evmp::event::EventLoop>("rt.edt");
      edt->start();
      return edt;
    }
    case RoundTripTarget::kReactor: {
      auto reactor = std::make_unique<evmp::net::Reactor>("rt.reactor");
      reactor->start();
      return reactor;
    }
    case RoundTripTarget::kPool1:
      return std::make_unique<evmp::exec::ThreadPoolExecutor>("rt.pool", 1);
    case RoundTripTarget::kSteal1:
      return std::make_unique<evmp::exec::WorkStealingExecutor>("rt.steal", 1);
  }
  return nullptr;
}

void BM_PostRoundTrip(benchmark::State& state, RoundTripTarget target) {
  const auto executor = start_round_trip_target(target);
  std::atomic<std::uint64_t> ran{0};
  std::uint64_t posted = 0;
  AllocScope allocs(state);
  for (auto _ : state) {
    executor->post([&ran] { ran.fetch_add(1, std::memory_order_release); });
    ++posted;
    evmp::common::SpinWait spin;
    while (ran.load(std::memory_order_acquire) != posted) {
      if (!spin.spin()) std::this_thread::yield();
    }
  }
}
BENCHMARK_CAPTURE(BM_PostRoundTrip, edt, RoundTripTarget::kEdt)->UseRealTime();
BENCHMARK_CAPTURE(BM_PostRoundTrip, reactor, RoundTripTarget::kReactor)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_PostRoundTrip, pool1, RoundTripTarget::kPool1)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_PostRoundTrip, steal1, RoundTripTarget::kSteal1)
    ->UseRealTime();

// --- steady-state allocation self-check (--alloc-check) -------------------

/// Measure steady-state allocations per nowait dispatch on the submitting
/// thread. Paced in rounds (dispatch a burst, then join) so queue depth and
/// the task-node and completion-pool populations stabilise during warmup;
/// the measured phase then repeats the identical pattern.
int run_alloc_check(const std::string& budget_path) {
  const double budget =
      read_budget(budget_path, "allocs_per_nowait_dispatch", 0.0);
  auto& rt = bench_rt().rt;

  constexpr int kPerRound = 64;
  constexpr int kWarmupRounds = 64;
  constexpr int kMeasuredRounds = 256;
  const auto round = [&rt] {
    for (int i = 0; i < kPerRound; ++i) {
      rt.invoke_target_block("worker", [] {}, Async::kNameAs, "alloc-check");
    }
    rt.wait_tag("alloc-check");
  };

  for (int i = 0; i < kWarmupRounds; ++i) round();

  const std::uint64_t before = thread_allocs();
  for (int i = 0; i < kMeasuredRounds; ++i) round();
  const std::uint64_t delta = thread_allocs() - before;

  const double per_dispatch =
      static_cast<double>(delta) /
      (static_cast<double>(kMeasuredRounds) * kPerRound);
  std::printf(
      "alloc-check: %llu submitter-thread allocations over %d dispatches "
      "=> %.4f allocs/dispatch (budget %.4f)\n",
      static_cast<unsigned long long>(delta), kMeasuredRounds * kPerRound,
      per_dispatch, budget);
  if (per_dispatch > budget) {
    std::fprintf(stderr,
                 "alloc-check FAILED: %.4f allocs/dispatch exceeds budget "
                 "%.4f\n",
                 per_dispatch, budget);
    return 1;
  }
  std::printf("alloc-check passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --alloc-check=<path> before benchmark::Initialize (it rejects
  // flags it does not know).
  std::string budget_path;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    constexpr std::string_view kFlag = "--alloc-check=";
    if (arg.substr(0, kFlag.size()) == kFlag) {
      budget_path = std::string(arg.substr(kFlag.size()));
    } else {
      args.push_back(argv[i]);
    }
  }
  int pruned_argc = static_cast<int>(args.size());
  benchmark::Initialize(&pruned_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(pruned_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!budget_path.empty()) return run_alloc_check(budget_path);
  return 0;
}
