#pragma once
// Measurement helpers shared by the workloads: exact percentiles over raw
// samples, process counters (CPU time, context switches, peak RSS, heap
// allocations), host CPU steal, precise absolute-time waits, and the
// timing decorator the traced run installs in front of a worker target.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "executor/executor.hpp"

namespace perfbench {

/// Nanoseconds since the process-wide origin (steady clock).
std::int64_t now_ns() noexcept;

/// Sleep until `ns` (origin-relative) on the monotonic clock. Call
/// tighten_timer_slack() on the thread first, or the kernel may round the
/// wake-up up by its default 50 us slack.
void sleep_until_ns(std::int64_t ns) noexcept;
/// Set the calling thread's timer slack to 1 ns.
void tighten_timer_slack() noexcept;

/// Heap allocations made by the whole process so far (0 when the
/// interposer is compiled out under a sanitizer).
std::uint64_t process_allocs() noexcept;
bool alloc_counting_enabled() noexcept;

/// Exact percentile of raw samples (nearest rank with linear
/// interpolation); q in [0, 1]. Sorts a copy. 0 for no samples.
double percentile(std::vector<double> samples, double q);

/// Median of a small set of values.
double median(std::vector<double> values);

/// Process-wide counters read at phase boundaries.
struct ProcSnapshot {
  double cpu_s = 0;              ///< user + system time, all threads
  std::uint64_t ctx_switches = 0;  ///< voluntary + involuntary
  std::uint64_t allocs = 0;
  std::uint64_t steal_ticks = 0;  ///< /proc/stat, all CPUs
  std::uint64_t total_ticks = 0;
  std::int64_t wall_ns = 0;
  double peak_rss_mb = 0;  ///< high-water resident set size so far
};
ProcSnapshot proc_snapshot();

/// Takes a ProcSnapshot every `period_ns` on its own thread while a phase
/// runs, so the phase can be cut into windows afterwards and the windows
/// the host stole CPU time from told apart from the rest.
class WindowSampler {
 public:
  explicit WindowSampler(std::int64_t period_ns);
  ~WindowSampler();
  WindowSampler(const WindowSampler&) = delete;
  WindowSampler& operator=(const WindowSampler&) = delete;

  /// First snapshot now, then one per period.
  void start();
  /// Final snapshot now; returns the window boundaries (at least two).
  std::vector<ProcSnapshot> stop();

 private:
  const std::int64_t period_ns_;
  std::mutex mu_;
  std::vector<ProcSnapshot> snaps_;
  std::jthread thread_;
};

/// Host fingerprint (nproc, CPU model, kernel, compiler, build type) as a
/// JSON object.
std::string host_fingerprint_json();

/// Shortest round-trip decimal form of `v` (0 for a non-finite value).
std::string json_number(double v);
/// `s` as a quoted JSON string (control characters dropped).
std::string json_string(std::string_view s);

/// One traced block passing through a worker target.
struct BlockSpan {
  std::int64_t post_ns = 0;   ///< entered the target's post()
  std::int64_t posted_ns = 0;  ///< post() returned (handed to the queue)
  std::int64_t start_ns = 0;  ///< began running on a target thread
  std::int64_t end_ns = 0;    ///< finished running
};

/// Timing decorator for a worker target, registered with
/// Runtime::register_executor under the target's name in the traced run.
/// While armed, the first `capacity` posted tasks are recorded in post order
/// (each workload has a single posting thread per target, so index order is
/// dispatch order); later ones are timed the same way but not kept, so the
/// decorator costs every block alike. Forwards
/// everything else to the wrapped executor, membership test included, so
/// Algorithm 1 behaves as without it.
class TimedExecutor final : public evmp::exec::Executor {
 public:
  TimedExecutor(std::string name, evmp::exec::Executor& inner,
                std::size_t capacity);

  void post(evmp::exec::Task task) override;
  bool try_run_one() override { return inner_.try_run_one(); }
  [[nodiscard]] bool owns_current_thread() const noexcept override {
    return inner_.owns_current_thread();
  }
  [[nodiscard]] std::size_t concurrency() const noexcept override {
    return inner_.concurrency();
  }
  [[nodiscard]] std::size_t pending() const override {
    return inner_.pending();
  }

  /// Start recording into an empty span table (previous spans dropped).
  void arm();
  /// Stop recording; returns the spans recorded since arm(), in post order.
  std::vector<BlockSpan> disarm();

 private:
  struct Slot {
    std::atomic<std::int64_t> post_ns{0};
    std::atomic<std::int64_t> posted_ns{0};
    std::atomic<std::int64_t> start_ns{0};
    std::atomic<std::int64_t> end_ns{0};
  };

  evmp::exec::Executor& inner_;
  const std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  Slot overflow_;  ///< written by posts beyond capacity, never read
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> armed_{false};
};

}  // namespace perfbench
