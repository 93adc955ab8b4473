#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <semaphore>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "client.hpp"
#include "core/runtime.hpp"
#include "event/event_loop.hpp"
#include "forkjoin/team_pool.hpp"
#include "httpsim/encryption_service.hpp"
#include "kernels/crypt.hpp"
#include "net/server.hpp"
#include "probes.hpp"

namespace perfbench {

namespace {

using evmp::Async;
using evmp::Runtime;
namespace exec = evmp::exec;

// --- workload constants -------------------------------------------------
// Loads are fixed numbers, not fractions of a measured capacity, so a PR
// that changes capacity does not change the load its latency is read at.
constexpr std::size_t kConns = 4;
constexpr int kSetupRepeats = 21;
constexpr double kEchoRate = 10'000;       // req/s, well below the knee
constexpr std::size_t kEchoBytes = 64;
// req/s: a quarter to a third of capacity, leaving the CPU headroom the
// client thread needs when the host steals a quarter of the CPU.
constexpr double kCryptRate = 300;
constexpr std::size_t kCryptBytes = 64 * 1024;
constexpr int kCryptWidth = 4;             // adaptive-width hint
constexpr double kEdtRate = 200;           // events/s
constexpr std::uint64_t kBlockIters = 1'250'000;  // ~2 ms of LCG steps
constexpr std::size_t kFanout = 64;        // blocks per burst
constexpr std::int64_t kProbePeriodNs = 1'000'000;
// A generator whose *median* lateness exceeds this has fallen behind its
// schedule (it normally sends 20-60 us late). The tail is no test: on this
// class of virtual machine a plain timed sleep already wakes >1 ms late at
// p99 (vCPU preemption).
constexpr double kLateLimitUs = 1000;
constexpr std::size_t kSpanCapacity = 1 << 19;  // traced blocks kept
constexpr std::size_t kTracedBursts = kSpanCapacity / kFanout;
constexpr std::int64_t kWindowNs = 1'000'000'000;
// Schedules start this far ahead, so the first op is not late at birth.
constexpr std::int64_t kLeadNs = 1'000'000;

constexpr std::uint64_t kLcgMul = 6364136223846793005ull;
constexpr std::uint64_t kLcgAdd = 1442695040888963407ull;

std::uint64_t lcg_run(std::uint64_t x, std::uint64_t n) noexcept {
  for (std::uint64_t i = 0; i < n; ++i) x = x * kLcgMul + kLcgAdd;
  return x;
}

// Closed form of lcg_run: n steps of an affine map by repeated squaring.
std::uint64_t lcg_jump(std::uint64_t x, std::uint64_t n) noexcept {
  std::uint64_t acc_mul = 1, acc_add = 0, cur_mul = kLcgMul, cur_add = kLcgAdd;
  while (n != 0) {
    if ((n & 1) != 0) {
      acc_mul *= cur_mul;
      acc_add = acc_add * cur_mul + cur_add;
    }
    cur_add = (cur_mul + 1) * cur_add;
    cur_mul *= cur_mul;
    n >>= 1;
  }
  return acc_mul * x + acc_add;
}

// Independent FNV-1a, the reference for the echo checksum.
std::uint64_t fnv1a_ref(const std::vector<std::uint8_t>& bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t mix_seed(std::uint64_t seed, std::string_view salt) {
  std::uint64_t h = seed * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull;
  for (const char c : salt) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return h;
}

std::vector<std::int64_t> poisson_dues(std::mt19937_64& rng, double rate,
                                       std::int64_t t0, double seconds) {
  std::exponential_distribution<double> gap(rate);
  std::vector<std::int64_t> dues;
  dues.reserve(static_cast<std::size_t>(rate * seconds * 1.2) + 16);
  const auto end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  for (double t = static_cast<double>(t0);;) {
    t += gap(rng) * 1e9;
    if (t >= static_cast<double>(end)) break;
    dues.push_back(static_cast<std::int64_t>(t));
  }
  return dues;
}

double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }
double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// Minimal JSON object writer for the info block.
class Json {
 public:
  Json& field(std::string_view key, double v) {
    return raw(key, json_number(v));
  }
  Json& raw(std::string_view key, const std::string& json) {
    out_ << (first_ ? "" : ", ") << '"' << key << "\": " << json;
    first_ = false;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + out_.str() + "}"; }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

/// A sample and the origin-relative time it belongs to.
using TimedSample = std::pair<std::int64_t, double>;

/// Fixed-capacity concurrent buffer of timed samples.
class SampleSink {
 public:
  explicit SampleSink(std::size_t capacity)
      : cap_(capacity), slots_(std::make_unique<Slot[]>(capacity)) {}
  void add(double x, std::int64_t t) noexcept {
    const std::size_t i = n_.fetch_add(1, std::memory_order_relaxed);
    if (i < cap_) {
      slots_[i].t.store(t, std::memory_order_relaxed);
      slots_[i].x.store(x, std::memory_order_relaxed);
    }
    stored_.fetch_add(1, std::memory_order_release);
  }
  void reset() noexcept {
    n_.store(0, std::memory_order_relaxed);
    stored_.store(0, std::memory_order_relaxed);
  }
  /// Samples whose add() has completed (once it equals the number of adds
  /// made, every slot is readable).
  [[nodiscard]] std::size_t count() const noexcept {
    return std::min(stored_.load(std::memory_order_acquire), cap_);
  }
  [[nodiscard]] std::vector<TimedSample> take_timed() const {
    std::vector<TimedSample> out(count());
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = {slots_[i].t.load(std::memory_order_relaxed),
                slots_[i].x.load(std::memory_order_relaxed)};
    }
    return out;
  }

 private:
  struct Slot {
    std::atomic<std::int64_t> t{0};
    std::atomic<double> x{0};
  };
  std::size_t cap_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::size_t> n_{0};
  std::atomic<std::size_t> stored_{0};
};

/// Posts a no-op to `target` every millisecond and records, in ms, how
/// long each waited before it ran — event::ResponseProbe's method, but
/// keeping raw samples instead of a bucketed histogram.
class Probe {
 public:
  Probe(exec::Executor& target, SampleSink& sink)
      : target_(target), sink_(sink) {}
  ~Probe() { stop(); }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  void start() {
    sink_.reset();
    posted_ = 0;
    thread_ = std::jthread([this](const std::stop_token& st) {
      tighten_timer_slack();
      std::int64_t next = now_ns();
      while (!st.stop_requested()) {
        const std::int64_t posted = now_ns();
        SampleSink* sink = &sink_;
        target_.post(exec::Task([sink, posted] {
          sink->add(ns_to_ms(now_ns() - posted), posted);
        }));
        ++posted_;
        next += kProbePeriodNs;
        sleep_until_ns(next);
      }
    });
  }

  /// Stop posting and wait (bounded) for the posted probes to run.
  void stop() {
    if (!thread_.joinable()) return;
    thread_.request_stop();
    thread_.join();
    const std::int64_t deadline = now_ns() + 2'000'000'000;
    while (sink_.count() < posted_ && now_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

 private:
  exec::Executor& target_;
  SampleSink& sink_;
  std::size_t posted_ = 0;
  std::jthread thread_;
};

// --- per-layer metric table --------------------------------------------

const std::vector<std::pair<std::string, std::string>> kLayerNames = {
    {"net.inbound_us_p50", "us"},
    {"net.inbound_us_p99", "us"},
    {"net.return_us_p50", "us"},
    {"net.return_us_p99", "us"},
    {"net.client_encode_ns", "ns"},
    {"net.client_parse_ns", "ns"},
    {"net.epoll_waits_per_req", "count/req"},
    {"net.wakeups_per_req", "count/req"},
    {"net.reactor_tasks_per_req", "count/req"},
    {"net.bytes_per_req", "B/req"},
    {"net.shed", "count"},
    {"net.protocol_errors", "count"},
    {"net.responses_dropped", "count"},
    {"core.dispatch_ns", "ns"},
    {"core.wake_lag_us_p50", "us"},
    {"core.wake_lag_us_p99", "us"},
    {"core.await_pumped_per_event", "count/op"},
    {"core.posted", "count/op"},
    {"core.inline_fast_path", "count/op"},
    {"executor.queue_wait_us_p50", "us"},
    {"executor.queue_wait_us_p99", "us"},
    {"executor.run_us_p50", "us"},
    {"executor.busy_pct", "%"},
    {"executor.steals_per_kblock", "count/kblock"},
    {"executor.injection_pops", "count"},
    {"executor.queue_collisions", "count"},
    {"executor.queue_max_depth", "count"},
    {"event.dispatch_delay_us_p50", "us"},
    {"event.dispatch_delay_us_p99", "us"},
    {"event.busy_pct", "%"},
    {"event.max_nesting", "count"},
    {"forkjoin.teams_created", "count"},
    {"forkjoin.leases_granted", "count"},
    {"forkjoin.lease_contentions", "count"},
    {"forkjoin.leased_high_water", "count"},
    {"forkjoin.governor_high_water", "count"},
    {"httpsim.handler_ms_p50", "ms"},
    {"httpsim.handler_ms_p99", "ms"},
    {"kernels.crypt_mb_per_s", "MB/s"},
    {"loadgen.late_us_p50", "us"},
    {"loadgen.late_us_p99", "us"},
    {"proc.steal_pct", "%"},
    {"proc.ctx_switches_per_op", "count/op"},
};

using LayerValues = std::map<std::string, double>;

/// Every per-layer metric in table order; 0 for a layer the workload does
/// not use.
std::vector<Metric> layer_metrics(const LayerValues& lv) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayerNames) {
    const auto it = lv.find(name);
    out.push_back({name, it != lv.end() ? it->second : 0.0, unit});
  }
  return out;
}

// --- phase plan and common metrics --------------------------------------

struct Plan {
  double warm_s, fixed_s, sat_s, ladder_s;
};

/// Open-loop workloads split the measured time into fixed load (60%),
/// saturation (10%) and capacity ladder (30%); the closed-loop one spends
/// all of it at its fixed load.
Plan plan_for(double seconds, bool open_loop) {
  Plan p{};
  p.warm_s = std::clamp(0.05 * seconds, 0.2, 1.0);
  p.fixed_s = (open_loop ? 0.6 : 1.0) * seconds;
  p.sat_s = open_loop ? 0.1 * seconds : 0.0;
  p.ladder_s = open_loop ? 0.3 * seconds : 0.0;
  return p;
}

/// What every workload measures at its fixed load. Times are the op's due
/// time (open loop) or start (closed loop), origin-relative ns.
struct FixedPhase {
  std::vector<TimedSample> latency_ms;  // answered ops
  std::vector<TimedSample> probe_ms;
  std::vector<std::int64_t> op_at;  // every attempted op
  std::vector<TimedSample> late_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<ProcSnapshot> windows;  // boundaries from a WindowSampler

  [[nodiscard]] const ProcSnapshot& begin() const { return windows.front(); }
  [[nodiscard]] const ProcSnapshot& end() const { return windows.back(); }
  [[nodiscard]] double wall_s() const {
    return ns_to_ms(end().wall_ns - begin().wall_ns) * 1e-3;
  }
};

double steal_pct(const ProcSnapshot& a, const ProcSnapshot& b) {
  const double ticks = static_cast<double>(b.total_ticks - a.total_ticks);
  if (ticks <= 0) return 0.0;
  return 100.0 * static_cast<double>(b.steal_ticks - a.steal_ticks) / ticks;
}

/// The fixed-load figures, taken over the calmer half of its one-second
/// windows: the host of this benchmark (a 4-vCPU virtual machine) steals
/// 15-25% of the CPU in bursts lasting seconds, which multiplies latency
/// and CPU per op while it lasts. Windows are ranked by the steal share
/// /proc/stat reports for them; the half with the least steal is pooled.
/// Per-layer percentiles of the fixed load are taken over the same windows.
struct FixedSummary {
  double p50_ms = 0, p99_ms = 0, probe_p50_ms = 0, probe_p99_ms = 0;
  double cpu_ms_per_kop = 0;
  double ops_per_s = 0;
  std::vector<double> window_steal_pct;
  std::vector<bool> calm;
  std::vector<std::int64_t> bounds;  ///< window boundaries, origin-relative

  /// Whether time `t` falls in one of the calm windows.
  [[nodiscard]] bool calm_at(std::int64_t t) const {
    const auto it = std::upper_bound(bounds.begin(), bounds.end(), t);
    const auto w = static_cast<std::size_t>(it - bounds.begin());
    return w >= 1 && w <= calm.size() && calm[w - 1];
  }
  /// The values of `samples` that fall in calm windows.
  [[nodiscard]] std::vector<double> calm_values(
      const std::vector<TimedSample>& samples) const {
    std::vector<double> v;
    for (const auto& [t, x] : samples) {
      if (calm_at(t)) v.push_back(x);
    }
    return v;
  }
};

FixedSummary summarize(const FixedPhase& f) {
  FixedSummary out;
  const std::size_t n = f.windows.size() - 1;
  std::vector<std::size_t> order(n);
  for (std::size_t w = 0; w < n; ++w) {
    order[w] = w;
    out.window_steal_pct.push_back(steal_pct(f.windows[w], f.windows[w + 1]));
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return out.window_steal_pct[a] < out.window_steal_pct[b];
                   });
  out.calm.assign(n, false);
  for (std::size_t k = 0; k < std::max<std::size_t>(1, n / 2); ++k) {
    out.calm[order[k]] = true;
  }
  for (const ProcSnapshot& w : f.windows) out.bounds.push_back(w.wall_ns);
  const std::vector<double> lat = out.calm_values(f.latency_ms);
  const std::vector<double> probe = out.calm_values(f.probe_ms);
  out.p50_ms = percentile(lat, 0.5);
  out.p99_ms = percentile(lat, 0.99);
  out.probe_p50_ms = percentile(probe, 0.5);
  out.probe_p99_ms = percentile(probe, 0.99);
  double cpu_s = 0, wall_s = 0, ops = 0;
  for (std::size_t w = 0; w < n; ++w) {
    if (!out.calm[w]) continue;
    cpu_s += f.windows[w + 1].cpu_s - f.windows[w].cpu_s;
    wall_s += ns_to_ms(f.windows[w + 1].wall_ns - f.windows[w].wall_ns) * 1e-3;
  }
  for (const std::int64_t t : f.op_at) ops += out.calm_at(t) ? 1.0 : 0.0;
  out.cpu_ms_per_kop = ops > 0 ? cpu_s * 1e6 / ops : 0.0;
  out.ops_per_s = wall_s > 0 ? ops / wall_s : 0.0;
  return out;
}

/// Completions per second as the median over `windows` equal slices of
/// [t0, t1), so a host hiccup costs one slice, not the whole figure.
double median_window_rate(const std::vector<std::int64_t>& done_ns,
                          std::int64_t t0, std::int64_t t1, int windows) {
  if (t1 <= t0 || windows < 1) return 0.0;
  std::vector<double> counts(static_cast<std::size_t>(windows), 0.0);
  const double width = static_cast<double>(t1 - t0) / windows;
  for (const std::int64_t t : done_ns) {
    if (t < t0 || t >= t1) continue;
    const auto w =
        static_cast<std::size_t>(static_cast<double>(t - t0) / width);
    counts[std::min(w, counts.size() - 1)] += 1.0;
  }
  for (double& c : counts) c /= width * 1e-9;
  return median(std::move(counts));
}

/// Wall and process CPU time of each repeated set-up.
class SetupTimes {
 public:
  void begin() {
    wall0_ = now_ns();
    cpu0_ = proc_snapshot().cpu_s;
  }
  void end() {
    cpu_s_.push_back(proc_snapshot().cpu_s - cpu0_);
    wall_s_.push_back(ns_to_ms(now_ns() - wall0_) * 1e-3);
  }
  [[nodiscard]] double median_s() const { return median(wall_s_); }
  [[nodiscard]] const std::vector<double>& wall_s() const { return wall_s_; }
  [[nodiscard]] const std::vector<double>& cpu_s() const { return cpu_s_; }

 private:
  std::int64_t wall0_ = 0;
  double cpu0_ = 0;
  std::vector<double> wall_s_, cpu_s_;
};

void add_common_e2e(Result& r, const FixedPhase& f, const FixedSummary& sum,
                    const SetupTimes& setup, double capacity,
                    double blocks_per_s) {
  const double ops =
      static_cast<double>(std::max<std::uint64_t>(f.attempted, 1));
  r.attempted = f.attempted;
  r.failed = f.failed;
  r.e2e = {
      {"setup_s", setup.median_s(), "s"},
      {"p50_ms", sum.p50_ms, "ms"},
      {"p99_ms", sum.p99_ms, "ms"},
      {"capacity_rps", capacity, "1/s"},
      {"blocks_per_s", blocks_per_s, "1/s"},
      {"probe_p50_ms", sum.probe_p50_ms, "ms"},
      {"probe_p99_ms", sum.probe_p99_ms, "ms"},
      {"ok_ratio", static_cast<double>(f.attempted - f.failed) / ops, "ratio"},
      {"fail_ratio", static_cast<double>(f.failed) / ops, "ratio"},
      {"allocs_per_op",
       static_cast<double>(f.end().allocs - f.begin().allocs) / ops,
       "count/op"},
      {"cpu_ms_per_kop", sum.cpu_ms_per_kop, "ms/kop"},
      // Read at the end of the fixed load, before the ladder's high rates
      // size the benchmark's own buffers by the capacity they reach.
      {"peak_rss_mb", f.end().peak_rss_mb, "MB"},
  };
}

std::vector<double> late_values(const FixedPhase& f) {
  std::vector<double> v;
  for (const auto& [t, x] : f.late_us) v.push_back(x);
  return v;
}

std::string fixed_info(const FixedPhase& f, const FixedSummary& sum,
                       const SetupTimes& setup) {
  const auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += (i ? ", " : "") + json_number(v[i]);
    }
    return out + "]";
  };
  std::vector<double> calm;
  for (const bool c : sum.calm) calm.push_back(c ? 1.0 : 0.0);
  return Json()
      .field("ops", static_cast<double>(f.attempted))
      .field("failed", static_cast<double>(f.failed))
      .field("latency_samples", static_cast<double>(f.latency_ms.size()))
      .field("probe_samples", static_cast<double>(f.probe_ms.size()))
      .field("wall_s", f.wall_s())
      .field("steal_pct", steal_pct(f.begin(), f.end()))
      .raw("window_steal_pct", list(sum.window_steal_pct))
      .raw("window_calm", list(calm))
      .field("loadgen_late_us_p50", percentile(late_values(f), 0.5))
      .field("loadgen_late_us_p99", percentile(late_values(f), 0.99))
      .raw("setup_wall_s_each", list(setup.wall_s()))
      .raw("setup_cpu_s_each", list(setup.cpu_s()))
      .str();
}

void add_proc_layers(LayerValues& lv, const FixedPhase& f,
                     const FixedSummary& sum) {
  const double ops =
      static_cast<double>(std::max<std::uint64_t>(f.attempted, 1));
  const std::vector<double> late = sum.calm_values(f.late_us);
  lv["loadgen.late_us_p50"] = percentile(late, 0.5);
  lv["loadgen.late_us_p99"] = percentile(late, 0.99);
  lv["proc.steal_pct"] = steal_pct(f.begin(), f.end());
  lv["proc.ctx_switches_per_op"] =
      static_cast<double>(f.end().ctx_switches - f.begin().ctx_switches) / ops;
}

/// Queue wait and run time of a traced worker target (blocks posted in calm
/// windows), and its busy share over the interval the spans cover.
void add_executor_span_layers(LayerValues& lv,
                              const std::vector<BlockSpan>& spans,
                              std::size_t threads, const FixedSummary& sum) {
  std::vector<double> wait_us, run_us;
  double busy_ns = 0;
  std::int64_t first = std::numeric_limits<std::int64_t>::max(), last = 0;
  for (const BlockSpan& s : spans) {
    if (s.end_ns == 0) continue;
    if (sum.calm_at(s.post_ns)) {
      wait_us.push_back(ns_to_us(s.start_ns - s.post_ns));
      run_us.push_back(ns_to_us(s.end_ns - s.start_ns));
    }
    busy_ns += static_cast<double>(s.end_ns - s.start_ns);
    first = std::min(first, s.post_ns);
    last = std::max(last, s.end_ns);
  }
  lv["executor.queue_wait_us_p50"] = percentile(wait_us, 0.5);
  lv["executor.queue_wait_us_p99"] = percentile(wait_us, 0.99);
  lv["executor.run_us_p50"] = percentile(run_us, 0.5);
  const double span_ns = static_cast<double>(last - first);
  lv["executor.busy_pct"] =
      last > first ? 100.0 * busy_ns / (span_ns * static_cast<double>(threads))
                   : 0.0;
}

void add_runtime_layers(LayerValues& lv, const evmp::RuntimeStats& a,
                        const evmp::RuntimeStats& b, double ops) {
  ops = std::max(ops, 1.0);
  lv["core.posted"] = static_cast<double>(b.posted - a.posted) / ops;
  lv["core.inline_fast_path"] =
      static_cast<double>(b.inline_fast_path - a.inline_fast_path) / ops;
  lv["core.await_pumped_per_event"] =
      static_cast<double>(b.await_pumped - a.await_pumped) / ops;
}

void add_pool_queue_layers(LayerValues& lv,
                           const evmp::common::ShardedQueueStats& a,
                           const evmp::common::ShardedQueueStats& b,
                           double blocks) {
  lv["executor.steals_per_kblock"] =
      blocks > 0 ? 1000.0 * static_cast<double>(b.steals - a.steals) / blocks
                 : 0.0;
  lv["executor.queue_collisions"] =
      static_cast<double>(b.collisions - a.collisions);
  lv["executor.queue_max_depth"] = static_cast<double>(b.max_depth);
}

// --- capacity ladder ----------------------------------------------------

/// One rung: every op's latency from its due time, and how late the
/// generator was for the ops it sent while idle.
struct Rung {
  std::uint64_t n = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_ms;
  std::vector<double> late_us;
};

struct LadderSpec {
  double base;      ///< lowest rate of the grid
  double limit_ms;  ///< p99 limit a rung must meet
  double rung_s;    ///< duration of one rung
};

struct LadderOutcome {
  double capacity = 0;
  bool capped = false;
  std::string log_json = "[]";
};

/// Highest rate of the fixed grid base * 1.05^k whose rung meets the p99
/// limit with no failures and no late generator. Gallops up eight grid
/// steps (x1.48) at a time from the fixed load, then bisects the bracket. A
/// failing rung is run once more before it counts, so one host hiccup does
/// not set the capacity. Stops at `end_ns`.
LadderOutcome run_ladder(const LadderSpec& spec, double start_rate,
                         std::int64_t end_ns,
                         const std::function<Rung(double, double)>& rung) {
  constexpr double kStep = 1.05;
  constexpr int kGallop = 8;
  const auto rate = [&](int k) { return spec.base * std::pow(kStep, k); };
  const double k0 = std::log(start_rate / spec.base) / std::log(kStep);
  int k = std::max(0, static_cast<int>(std::lround(k0)));
  int lo = -1;  // highest passing grid index
  int hi = -1;  // lowest failing grid index
  bool out_of_time = false;
  std::string log = "[";

  const auto attempt = [&](int kk) -> std::optional<bool> {
    for (int tries = 0; tries < 2; ++tries) {
      if (now_ns() + static_cast<std::int64_t>(spec.rung_s * 1e9) > end_ns) {
        return std::nullopt;
      }
      const Rung r = rung(rate(kk), spec.rung_s);
      const double p99 = percentile(r.latency_ms, 0.99);
      const double late = percentile(r.late_us, 0.5);
      const bool gen_late = late > kLateLimitUs;
      const bool pass =
          r.n > 0 && r.failed == 0 && p99 <= spec.limit_ms && !gen_late;
      log += std::string(log.size() > 1 ? ", " : "") +
             Json()
                 .field("rate", rate(kk))
                 .field("n", static_cast<double>(r.n))
                 .field("failed", static_cast<double>(r.failed))
                 .field("p99_ms", p99)
                 .field("late_us_p50", late)
                 .field("pass", pass ? 1.0 : 0.0)
                 .str();
      if (pass) return true;
    }
    return false;
  };

  for (;;) {
    const auto ok = attempt(k);
    if (!ok) {
      out_of_time = true;
      break;
    }
    if (*ok) {
      lo = k;
      if (hi >= 0) break;
      k += kGallop;
    } else {
      hi = k;
      if (lo >= 0 || k == 0) break;
      k = std::max(0, k - kGallop);
    }
  }
  while (!out_of_time && lo >= 0 && hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    const auto ok = attempt(mid);
    if (!ok) {
      out_of_time = true;
      break;
    }
    (*ok ? lo : hi) = mid;
  }
  LadderOutcome out;
  out.capacity = lo >= 0 ? rate(lo) : 0.0;
  out.log_json = log + "]";
  out.capped = hi < 0;  // no rung failed: capacity is a lower bound
  return out;
}

// --- echo_small and crypt_service ---------------------------------------

evmp::http::EncryptionService::Config crypt_config() {
  evmp::http::EncryptionService::Config cfg;
  cfg.payload_bytes = kCryptBytes;
  cfg.parallel_width = kCryptWidth;
  cfg.adaptive_width = true;
  return cfg;
}

using Payloads = std::vector<std::vector<std::uint8_t>>;

/// fj::TeamPool counters read at a phase boundary.
struct TeamCounters {
  std::uint64_t created, leases, contentions;
  int leased_high_water, governor_high_water;
};

TeamCounters team_counters() {
  auto& pool = evmp::fj::TeamPool::instance();
  return {pool.teams_created(), pool.leases_granted(),
          pool.lease_contentions(), pool.leased_high_water(),
          pool.governor().decayed_high_water()};
}

/// Runtime + worker target + net::Server + connected client. Member order
/// is teardown order reversed: the client closes first, the server drains,
/// the runtime joins its workers, and only then does the timing decorator
/// (which their tasks reference) go away.
class NetSystem {
 public:
  NetSystem(bool crypt, bool traced, const Payloads& payloads,
            const std::vector<std::uint64_t>& checksums,
            SampleSink* handler_ms) {
    if (traced) {
      pool_ = &rt_.create_worker("worker.inner", 2);
      timed_ = std::make_unique<TimedExecutor>("worker", *pool_, kSpanCapacity);
      rt_.register_executor("worker", *timed_);
    } else {
      pool_ = &rt_.create_worker("worker", 2);
    }
    evmp::net::Server::Config cfg;
    cfg.target = "worker";
    cfg.mode = crypt ? evmp::net::Server::Mode::kHandler
                     : evmp::net::Server::Mode::kEcho;
    if (crypt) {
      svc_ = std::make_unique<evmp::http::EncryptionService>(crypt_config());
      evmp::http::RequestHandler h = svc_->handler();
      if (handler_ms != nullptr) {
        cfg.handler = [h, handler_ms](const evmp::http::Request& req) {
          const std::int64_t t0 = now_ns();
          evmp::http::Response resp = h(req);
          handler_ms->add(ns_to_ms(now_ns() - t0), t0);
          return resp;
        };
      } else {
        cfg.handler = std::move(h);
      }
    }
    server_ = std::make_unique<evmp::net::Server>(rt_, std::move(cfg));
    server_->start();
    client_ = std::make_unique<HttpClient>(server_->port(), kConns, payloads,
                                           checksums, !crypt, traced);
    ready_ = client_->connect_all();
    if (ready_) {
      // One round trip per connection: the server has accepted and served
      // every connection before the system counts as set up.
      ClientPhase first;
      first.ops.resize(kConns);
      for (std::size_t i = 0; i < kConns; ++i) {
        first.ops[i].due = now_ns();
        first.ops[i].conn = static_cast<std::uint32_t>(i);
      }
      client_->run_open(first, 5'000'000'000);
      ready_ = first.ok == kConns;
    }
  }
  ~NetSystem() {
    client_.reset();
    if (server_) server_->stop();
  }
  NetSystem(const NetSystem&) = delete;
  NetSystem& operator=(const NetSystem&) = delete;

  [[nodiscard]] bool ready() const noexcept { return ready_; }
  HttpClient& client() { return *client_; }
  evmp::net::Server& server() { return *server_; }
  Runtime& rt() { return rt_; }
  exec::ThreadPoolExecutor& pool() { return *pool_; }
  TimedExecutor* timed() { return timed_.get(); }

 private:
  std::unique_ptr<TimedExecutor> timed_;
  Runtime rt_;
  exec::ThreadPoolExecutor* pool_ = nullptr;
  std::unique_ptr<evmp::http::EncryptionService> svc_;
  std::unique_ptr<evmp::net::Server> server_;
  std::unique_ptr<HttpClient> client_;
  bool ready_ = false;
};

void fill_open_ops(ClientPhase& phase, const std::vector<std::int64_t>& dues,
                   std::mt19937_64& rng, std::size_t payloads) {
  phase.ops.resize(dues.size());
  for (std::size_t i = 0; i < dues.size(); ++i) {
    phase.ops[i].due = dues[i];
    phase.ops[i].conn = static_cast<std::uint32_t>(i % kConns);
    phase.ops[i].payload = static_cast<std::uint32_t>(rng() % payloads);
  }
}

void check_client_phase(const ClientPhase& p, std::string_view what,
                        Result& r) {
  if (p.wrong != 0) {
    r.problems.push_back(std::string(what) + ": " + std::to_string(p.wrong) +
                         " responses with a wrong status, id, checksum or "
                         "body");
  }
}

Result run_net(const Options& opt, bool crypt) {
  Result r;
  const Plan plan = plan_for(opt.seconds, true);
  std::mt19937_64 rng(mix_seed(opt.seed, opt.workload));

  // Inputs from the seed; reference checksums computed independently of
  // the server (echo: the benchmark's own FNV-1a; crypt: an identical
  // EncryptionService called directly).
  const std::size_t n_payloads = crypt ? 16 : 256;
  const std::size_t bytes = crypt ? kCryptBytes : kEchoBytes;
  Payloads payloads(n_payloads, std::vector<std::uint8_t>(bytes));
  for (auto& p : payloads) {
    for (auto& b : p) b = static_cast<std::uint8_t>(rng());
  }
  std::vector<std::uint64_t> checksums;
  if (crypt) {
    evmp::http::EncryptionService reference(crypt_config());
    const evmp::http::RequestHandler h = reference.handler();
    for (const auto& p : payloads) {
      evmp::http::Request req;
      req.payload = p;
      checksums.push_back(h(req).checksum);
    }
  } else {
    for (const auto& p : payloads) checksums.push_back(fnv1a_ref(p));
  }

  SampleSink handler_ms(kSpanCapacity);
  SetupTimes setup;
  std::unique_ptr<NetSystem> sys;
  for (int i = 0; i < kSetupRepeats; ++i) {
    sys.reset();
    setup.begin();
    sys = std::make_unique<NetSystem>(
        crypt, opt.traced, payloads, checksums,
        opt.traced && crypt ? &handler_ms : nullptr);
    setup.end();
    if (!sys->ready()) {
      r.problems.push_back(
          "server did not answer on every connection after setup");
      return r;
    }
  }

  const double fixed_rate = crypt ? kCryptRate : kEchoRate;
  // Warm-up at the fixed load: pools, caches and kernels fill here.
  {
    ClientPhase warm;
    const auto dues =
        poisson_dues(rng, fixed_rate, now_ns() + kLeadNs, plan.warm_s);
    fill_open_ops(warm, dues, rng, n_payloads);
    sys->client().run_open(warm, 5'000'000'000);
    check_client_phase(warm, "warm-up", r);
  }

  // Fixed load.
  FixedPhase f;
  LayerValues lv;
  SampleSink probe_ms(static_cast<std::size_t>(plan.fixed_s * 2000) + 1024);
  ClientPhase fixed;
  fill_open_ops(fixed,
                poisson_dues(rng, fixed_rate, now_ns() + kLeadNs, plan.fixed_s),
                rng, n_payloads);
  if (opt.traced) {
    fixed.encode_ns.reserve(fixed.ops.size());
    fixed.parse_ns.reserve(fixed.ops.size());
    sys->timed()->arm();
    handler_ms.reset();
  }
  const evmp::net::ServerStats srv0 = sys->server().stats();
  const evmp::net::ReactorStats rea0 = sys->server().reactor().stats();
  const auto q0 = sys->pool().queue_stats();
  const TeamCounters teams0 = team_counters();
  const evmp::RuntimeStats rs0 = sys->rt().stats();
  {
    Probe probe(sys->server().reactor(), probe_ms);
    WindowSampler sampler(kWindowNs);
    sampler.start();
    probe.start();
    sys->client().run_open(fixed, 5'000'000'000);
    f.windows = sampler.stop();
  }
  const evmp::RuntimeStats rs1 = sys->rt().stats();
  const TeamCounters teams1 = team_counters();
  const std::vector<TimedSample> handler = handler_ms.take_timed();
  const evmp::net::ServerStats srv1 = sys->server().stats();
  const evmp::net::ReactorStats rea1 = sys->server().reactor().stats();
  const auto q1 = sys->pool().queue_stats();
  std::vector<BlockSpan> spans;
  if (opt.traced) spans = sys->timed()->disarm();
  check_client_phase(fixed, "fixed load", r);
  if (fixed.lost != 0) {
    r.problems.push_back("fixed load: " + std::to_string(fixed.lost) +
                         " requests never answered");
  }
  f.attempted = fixed.ops.size();
  f.failed = fixed.failed();
  for (const ClientOp& op : fixed.ops) {
    f.op_at.push_back(op.due);
    if (op.outcome == Outcome::kOk) {
      f.latency_ms.emplace_back(op.due, ns_to_ms(op.done - op.due));
    }
    f.late_us.emplace_back(op.due, ns_to_us(op.sent - op.due));
  }
  f.probe_ms = probe_ms.take_timed();
  if (percentile(late_values(f), 0.5) > kLateLimitUs) {
    r.problems.push_back(
        "load generator fell behind its schedule (invalid run)");
  }
  const FixedSummary sum = summarize(f);

  // Saturation: every connection keeps a window of requests in flight.
  double blocks_per_s = 0;
  {
    ClientPhase sat;
    sat.ops.reserve(
        static_cast<std::size_t>(plan.sat_s * (crypt ? 5'000 : 500'000)) + 64);
    const std::int64_t t0 = now_ns();
    const std::int64_t end = t0 + static_cast<std::int64_t>(plan.sat_s * 1e9);
    sys->client().run_closed(sat, crypt ? 2 : 16, end, 10'000'000'000);
    check_client_phase(sat, "saturation", r);
    std::vector<std::int64_t> done;
    for (const ClientOp& op : sat.ops) {
      if (op.outcome == Outcome::kOk) done.push_back(op.done);
    }
    blocks_per_s = median_window_rate(
        done, t0, end, std::max(1, static_cast<int>(plan.sat_s / 0.2)));
    if (sat.ops.size() == sat.ops.capacity()) {
      r.problems.push_back("saturation phase hit its request cap");
    }
  }

  // Capacity ladder.
  // p99 limits sit well above the host's own timer-wake tail (see
  // kLateLimitUs), so a rung fails on a growing queue, not on a hiccup.
  const LadderSpec spec =
      crypt ? LadderSpec{100, 100, std::max(0.2, plan.ladder_s / 8)}
            : LadderSpec{5'000, 20, std::max(0.1, plan.ladder_s / 20)};
  const std::int64_t ladder_end =
      now_ns() + static_cast<std::int64_t>(plan.ladder_s * 1e9);
  const LadderOutcome ladder = run_ladder(
      spec, fixed_rate, ladder_end,
      [&](double rate, double secs) {
        ClientPhase p;
        fill_open_ops(p, poisson_dues(rng, rate, now_ns() + kLeadNs, secs),
                      rng, n_payloads);
        sys->client().run_open(p, 3'000'000'000);
        check_client_phase(p, "capacity ladder", r);
        Rung rung;
        rung.n = p.ops.size();
        rung.failed = p.failed();
        for (const ClientOp& op : p.ops) {
          if (op.outcome == Outcome::kOk) {
            rung.latency_ms.push_back(ns_to_ms(op.done - op.due));
          }
          rung.late_us.push_back(ns_to_us(op.sent - op.due));
        }
        return rung;
      });

  add_common_e2e(r, f, sum, setup, ladder.capacity, blocks_per_s);
  if (opt.traced) {
    const double reqs = static_cast<double>(std::max<std::uint64_t>(
        srv1.requests_received - srv0.requests_received, 1));
    const auto per_req = [reqs](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(b - a) / reqs;
    };
    const auto delta = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(b - a);
    };
    lv["net.client_encode_ns"] = percentile(fixed.encode_ns, 0.5);
    lv["net.client_parse_ns"] = percentile(fixed.parse_ns, 0.5);
    lv["net.epoll_waits_per_req"] = per_req(rea0.epoll_waits, rea1.epoll_waits);
    lv["net.wakeups_per_req"] = per_req(rea0.wakeups, rea1.wakeups);
    lv["net.reactor_tasks_per_req"] = per_req(rea0.tasks_run, rea1.tasks_run);
    lv["net.bytes_per_req"] =
        per_req(srv0.bytes_received, srv1.bytes_received) +
        per_req(srv0.bytes_sent, srv1.bytes_sent);
    lv["net.shed"] = delta(srv0.requests_shed, srv1.requests_shed);
    lv["net.protocol_errors"] =
        delta(srv0.protocol_errors, srv1.protocol_errors);
    lv["net.responses_dropped"] =
        delta(srv0.responses_dropped, srv1.responses_dropped);
    // The server dispatches from its single reactor thread in the order it
    // parsed requests, and the client sends in due order, so the k-th
    // answered request (by send) is the k-th block the worker target saw.
    std::vector<const ClientOp*> served;
    for (const ClientOp& op : fixed.ops) {
      if (op.outcome == Outcome::kOk) served.push_back(&op);
    }
    std::stable_sort(
        served.begin(), served.end(),
        [](const ClientOp* a, const ClientOp* b) { return a->sent < b->sent; });
    if (served.size() == spans.size()) {
      std::vector<double> inbound, ret;
      for (std::size_t i = 0; i < spans.size(); ++i) {
        if (!sum.calm_at(served[i]->due)) continue;
        inbound.push_back(ns_to_us(spans[i].start_ns - served[i]->due));
        ret.push_back(ns_to_us(served[i]->done - spans[i].end_ns));
      }
      lv["net.inbound_us_p50"] = percentile(inbound, 0.5);
      lv["net.inbound_us_p99"] = percentile(inbound, 0.99);
      lv["net.return_us_p50"] = percentile(ret, 0.5);
      lv["net.return_us_p99"] = percentile(ret, 0.99);
    }
    add_executor_span_layers(lv, spans, sys->pool().concurrency(), sum);
    add_pool_queue_layers(lv, q0, q1, static_cast<double>(spans.size()));
    add_runtime_layers(lv, rs0, rs1, static_cast<double>(f.attempted));
    add_proc_layers(lv, f, sum);
    lv["forkjoin.teams_created"] = delta(teams0.created, teams1.created);
    lv["forkjoin.leases_granted"] = delta(teams0.leases, teams1.leases);
    lv["forkjoin.lease_contentions"] =
        delta(teams0.contentions, teams1.contentions);
    lv["forkjoin.leased_high_water"] = teams1.leased_high_water;
    lv["forkjoin.governor_high_water"] = teams1.governor_high_water;
    if (crypt) {
      const std::vector<double> handler_calm = sum.calm_values(handler);
      lv["httpsim.handler_ms_p50"] = percentile(handler_calm, 0.5);
      lv["httpsim.handler_ms_p99"] = percentile(handler_calm, 0.99);
      // The kernel alone, on this thread, with the system idle.
      evmp::kernels::CryptKernel kernel(kCryptBytes);
      kernel.prepare();
      std::vector<double> secs;
      for (int i = 0; i < 15; ++i) {
        const std::int64_t t0 = now_ns();
        const std::uint64_t combined = kernel.run_sequential();
        secs.push_back(ns_to_ms(now_ns() - t0) * 1e-3);
        if (!kernel.validate(combined)) {
          r.problems.push_back("crypt kernel failed its own validation");
        }
      }
      lv["kernels.crypt_mb_per_s"] =
          static_cast<double>(kCryptBytes) / 1e6 / median(secs);
    }
  }
  r.layer = layer_metrics(lv);
  r.info_json = Json()
                    .raw("fixed", fixed_info(f, sum, setup))
                    .field("fixed_rate", fixed_rate)
                    .field("saturation_window_per_conn", crypt ? 2.0 : 16.0)
                    .field("ladder_p99_limit_ms", spec.limit_ms)
                    .field("ladder_capped", ladder.capped ? 1.0 : 0.0)
                    .raw("ladder", ladder.log_json)
                    .str();
  sys.reset();
  return r;
}

// --- edt_await ----------------------------------------------------------

/// Event-dispatch thread + worker target. The runtime (and the worker it
/// owns) is torn down before the loop and the decorator.
class EdtSystem {
 public:
  explicit EdtSystem(bool traced) {
    loop_.start();
    rt_.register_edt("edt", loop_);
    if (traced) {
      pool_ = &rt_.create_worker("worker.inner", 2);
      timed_ = std::make_unique<TimedExecutor>("worker", *pool_, kSpanCapacity);
      rt_.register_executor("worker", *timed_);
    } else {
      pool_ = &rt_.create_worker("worker", 2);
    }
  }
  ~EdtSystem() { loop_.wait_until_idle(); }
  EdtSystem(const EdtSystem&) = delete;
  EdtSystem& operator=(const EdtSystem&) = delete;

  evmp::event::EventLoop& loop() { return loop_; }
  Runtime& rt() { return rt_; }
  exec::ThreadPoolExecutor& pool() { return *pool_; }
  TimedExecutor* timed() { return timed_.get(); }

 private:
  std::unique_ptr<TimedExecutor> timed_;
  evmp::event::EventLoop loop_{"edt"};
  Runtime rt_;
  exec::ThreadPoolExecutor* pool_ = nullptr;
};

/// State of one batch of events; handlers on the EDT and blocks on the
/// worker write their own slots.
struct EdtEvents {
  explicit EdtEvents(std::size_t count, std::uint64_t seed_salt)
      : n(count), salt(seed_salt), due(count), sent(count),
        done(std::make_unique<std::atomic<std::int64_t>[]>(count)),
        call(std::make_unique<std::atomic<std::int64_t>[]>(count)),
        block_end(std::make_unique<std::atomic<std::int64_t>[]>(count)),
        result(std::make_unique<std::atomic<std::uint64_t>[]>(count)),
        fired(std::make_unique<std::atomic<std::uint32_t>[]>(count)),
        ran(std::make_unique<std::atomic<std::uint32_t>[]>(count)) {}

  std::size_t n;
  std::uint64_t salt;
  std::vector<std::int64_t> due;
  std::vector<std::int64_t> sent;
  std::unique_ptr<std::atomic<std::int64_t>[]> done, call, block_end;
  std::unique_ptr<std::atomic<std::uint64_t>[]> result;
  std::unique_ptr<std::atomic<std::uint32_t>[]> fired, ran;
  std::atomic<std::size_t> completed{0};
  std::counting_semaphore<1024>* window = nullptr;

  [[nodiscard]] std::uint64_t input(std::size_t i) const noexcept {
    return salt + i * 0x9e3779b97f4a7c15ull;
  }
};

void handle_event(Runtime& rt, EdtEvents& ev, std::size_t i) {
  ev.call[i].store(now_ns(), std::memory_order_relaxed);
  rt.invoke_target_block(
      "worker",
      [&ev, i] {
        ev.result[i].store(lcg_run(ev.input(i), kBlockIters),
                           std::memory_order_relaxed);
        ev.ran[i].fetch_add(1, std::memory_order_relaxed);
        ev.block_end[i].store(now_ns(), std::memory_order_relaxed);
      },
      Async::kAwait);
  ev.done[i].store(now_ns(), std::memory_order_relaxed);
  ev.fired[i].fetch_add(1, std::memory_order_relaxed);
  ev.completed.fetch_add(1, std::memory_order_release);
  if (ev.window != nullptr) ev.window->release();
}

/// Wait (bounded) until every posted event of `ev` completed.
bool drain_events(const EdtEvents& ev, std::size_t posted,
                  std::int64_t timeout_ns) {
  const std::int64_t deadline = now_ns() + timeout_ns;
  while (ev.completed.load(std::memory_order_acquire) < posted) {
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

/// Check every completed event: its token fired once, its block ran once,
/// and the block's result matches the closed form.
void check_events(const EdtEvents& ev, std::size_t posted,
                  std::string_view what, Result& r) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < posted; ++i) {
    if (ev.fired[i].load() != 1 || ev.ran[i].load() != 1 ||
        ev.result[i].load() != lcg_jump(ev.input(i), kBlockIters)) {
      ++bad;
    }
  }
  if (bad != 0) {
    r.problems.push_back(std::string(what) + ": " + std::to_string(bad) +
                         " events whose token did not fire exactly once or "
                         "whose block result is wrong");
  }
}

/// Post every event of `ev` at its due time from the calling thread.
void post_open(EdtSystem& sys, EdtEvents& ev) {
  tighten_timer_slack();
  for (std::size_t i = 0; i < ev.n; ++i) {
    if (now_ns() < ev.due[i]) sleep_until_ns(ev.due[i]);
    ev.sent[i] = now_ns();
    Runtime* rt = &sys.rt();
    EdtEvents* e = &ev;
    sys.loop().post(exec::Task([rt, e, i] { handle_event(*rt, *e, i); }));
  }
}

Result run_edt(const Options& opt) {
  Result r;
  const Plan plan = plan_for(opt.seconds, true);
  std::mt19937_64 rng(mix_seed(opt.seed, opt.workload));
  // Event batches outlive a drain that timed out: their handlers may still
  // be running, so they are freed only after the system is torn down.
  std::vector<std::unique_ptr<EdtEvents>> batches;
  const auto new_batch =
      [&](const std::vector<std::int64_t>& dues) -> EdtEvents& {
    batches.push_back(std::make_unique<EdtEvents>(
        std::max<std::size_t>(dues.size(), 1), rng()));
    EdtEvents& ev = *batches.back();
    ev.n = dues.size();
    std::copy(dues.begin(), dues.end(), ev.due.begin());
    return ev;
  };

  SetupTimes setup;
  std::unique_ptr<EdtSystem> sys;
  for (int i = 0; i < kSetupRepeats; ++i) {
    sys.reset();
    setup.begin();
    sys = std::make_unique<EdtSystem>(opt.traced);
    // Ready when one event has awaited one block end to end.
    EdtEvents& ev = new_batch({now_ns()});
    post_open(*sys, ev);
    if (!drain_events(ev, 1, 5'000'000'000)) {
      r.problems.push_back("setup: the first event did not complete");
      return r;
    }
    setup.end();
  }

  const auto run_batch = [&](EdtEvents& ev, std::string_view what) {
    post_open(*sys, ev);
    if (!drain_events(ev, ev.n, 30'000'000'000)) {
      r.problems.push_back(std::string(what) +
                           ": events did not complete within 30 s");
      return false;
    }
    check_events(ev, ev.n, what, r);
    return true;
  };

  {
    EdtEvents& warm = new_batch(
        poisson_dues(rng, kEdtRate, now_ns() + kLeadNs, plan.warm_s));
    if (!run_batch(warm, "warm-up")) return r;
  }

  // Fixed load.
  FixedPhase f;
  LayerValues lv;
  SampleSink probe_ms(static_cast<std::size_t>(plan.fixed_s * 2000) + 1024);
  EdtEvents& fixed = new_batch(
      poisson_dues(rng, kEdtRate, now_ns() + kLeadNs, plan.fixed_s));
  if (opt.traced) sys->timed()->arm();
  sys->loop().reset_stats();
  const evmp::RuntimeStats rs0 = sys->rt().stats();
  const auto q0 = sys->pool().queue_stats();
  bool fixed_ok = false;
  {
    Probe probe(sys->loop(), probe_ms);
    WindowSampler sampler(kWindowNs);
    sampler.start();
    probe.start();
    fixed_ok = run_batch(fixed, "fixed load");
    f.windows = sampler.stop();
  }
  if (!fixed_ok) return r;
  const evmp::RuntimeStats rs1 = sys->rt().stats();
  const auto q1 = sys->pool().queue_stats();
  std::vector<BlockSpan> spans;
  if (opt.traced) spans = sys->timed()->disarm();
  // The event loop's own counters, before the saturation and ladder phases
  // add to them. Its delay histogram is bucketed (up to 12.5% error) and
  // covers every window; it is reported as the layer's own view.
  const double busy_ns = static_cast<double>(sys->loop().busy_time().count());
  const int max_nesting = sys->loop().max_nesting();
  const double delay_p50_us =
      static_cast<double>(sys->loop().dispatch_delay().percentile(0.5)) * 1e-3;
  const double delay_p99_us =
      static_cast<double>(sys->loop().dispatch_delay().percentile(0.99)) * 1e-3;
  f.attempted = fixed.n;
  f.failed = 0;  // every event completed and was checked above
  for (std::size_t i = 0; i < fixed.n; ++i) {
    f.op_at.push_back(fixed.due[i]);
    f.latency_ms.emplace_back(
        fixed.due[i], ns_to_ms(fixed.done[i].load() - fixed.due[i]));
    f.late_us.emplace_back(fixed.due[i],
                           ns_to_us(fixed.sent[i] - fixed.due[i]));
  }
  f.probe_ms = probe_ms.take_timed();
  const FixedSummary sum = summarize(f);
  if (percentile(late_values(f), 0.5) > kLateLimitUs) {
    r.problems.push_back(
        "event generator fell behind its schedule (invalid run)");
  }

  // Saturation: a window of events in flight, each posted when one ends.
  double blocks_per_s = 0;
  {
    constexpr std::size_t kWindow = 4;
    std::counting_semaphore<1024> window(kWindow);
    const std::size_t cap = static_cast<std::size_t>(plan.sat_s * 2000) + 64;
    EdtEvents& sat = new_batch(std::vector<std::int64_t>(cap, 0));
    sat.window = &window;
    const std::int64_t t0 = now_ns();
    const std::int64_t end = t0 + static_cast<std::int64_t>(plan.sat_s * 1e9);
    std::size_t posted = 0;
    while (posted < cap && now_ns() < end) {
      if (!window.try_acquire_for(std::chrono::milliseconds(1))) continue;
      sat.due[posted] = sat.sent[posted] = now_ns();
      Runtime* rt = &sys->rt();
      EdtEvents* e = &sat;
      const std::size_t i = posted++;
      sys->loop().post(exec::Task([rt, e, i] { handle_event(*rt, *e, i); }));
    }
    if (!drain_events(sat, posted, 30'000'000'000)) {
      r.problems.push_back("saturation: events did not complete within 30 s");
      return r;
    }
    check_events(sat, posted, "saturation", r);
    std::vector<std::int64_t> done;
    for (std::size_t i = 0; i < posted; ++i) done.push_back(sat.done[i].load());
    blocks_per_s = median_window_rate(
        done, t0, end, std::max(1, static_cast<int>(plan.sat_s / 0.2)));
  }

  const LadderSpec spec{100, 50, std::max(0.3, plan.ladder_s / 8)};
  const std::int64_t ladder_end =
      now_ns() + static_cast<std::int64_t>(plan.ladder_s * 1e9);
  const LadderOutcome ladder = run_ladder(
      spec, kEdtRate, ladder_end,
      [&](double rate, double secs) {
        Rung rung;
        EdtEvents& ev =
            new_batch(poisson_dues(rng, rate, now_ns() + kLeadNs, secs));
        rung.n = ev.n;
        if (!run_batch(ev, "capacity ladder")) {
          rung.failed = ev.n;
          return rung;
        }
        for (std::size_t i = 0; i < ev.n; ++i) {
          rung.latency_ms.push_back(ns_to_ms(ev.done[i].load() - ev.due[i]));
          rung.late_us.push_back(ns_to_us(ev.sent[i] - ev.due[i]));
        }
        return rung;
      });

  add_common_e2e(r, f, sum, setup, ladder.capacity, blocks_per_s);
  if (opt.traced) {
    const double wall_s = f.wall_s();
    // The EDT is the only thread dispatching to the worker, so the k-th
    // dispatch call is the k-th block the decorator saw.
    std::vector<std::size_t> order(fixed.n);
    for (std::size_t i = 0; i < fixed.n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return fixed.call[a].load() < fixed.call[b].load();
    });
    std::vector<double> dispatch_ns, wake_us;
    for (std::size_t k = 0; k < order.size(); ++k) {
      const std::size_t i = order[k];
      const std::int64_t called = fixed.call[i].load();
      if (!sum.calm_at(called)) continue;
      if (k < spans.size()) {
        dispatch_ns.push_back(static_cast<double>(spans[k].posted_ns - called));
      }
      wake_us.push_back(
          ns_to_us(fixed.done[i].load() - fixed.block_end[i].load()));
    }
    lv["core.dispatch_ns"] = percentile(dispatch_ns, 0.5);
    lv["core.wake_lag_us_p50"] = percentile(wake_us, 0.5);
    lv["core.wake_lag_us_p99"] = percentile(wake_us, 0.99);
    add_runtime_layers(lv, rs0, rs1, static_cast<double>(f.attempted));
    add_executor_span_layers(lv, spans, sys->pool().concurrency(), sum);
    add_pool_queue_layers(lv, q0, q1, static_cast<double>(spans.size()));
    lv["event.dispatch_delay_us_p50"] = delay_p50_us;
    lv["event.dispatch_delay_us_p99"] = delay_p99_us;
    lv["event.busy_pct"] = wall_s > 0 ? 100.0 * busy_ns * 1e-9 / wall_s : 0.0;
    lv["event.max_nesting"] = max_nesting;
    add_proc_layers(lv, f, sum);
  }
  r.layer = layer_metrics(lv);
  r.info_json = Json()
                    .raw("fixed", fixed_info(f, sum, setup))
                    .field("fixed_rate", kEdtRate)
                    .field("block_iters", static_cast<double>(kBlockIters))
                    .field("ladder_p99_limit_ms", spec.limit_ms)
                    .field("ladder_capped", ladder.capped ? 1.0 : 0.0)
                    .raw("ladder", ladder.log_json)
                    .str();
  sys.reset();
  return r;
}

// --- fanout_join --------------------------------------------------------

class FanoutSystem {
 public:
  explicit FanoutSystem(bool traced) {
    if (traced) {
      pool_ = &rt_.create_stealing_worker("w.inner", 3);
      timed_ = std::make_unique<TimedExecutor>("w", *pool_, kSpanCapacity);
      rt_.register_executor("w", *timed_);
    } else {
      pool_ = &rt_.create_stealing_worker("w", 3);
    }
  }

  Runtime& rt() { return rt_; }
  exec::WorkStealingExecutor& pool() { return *pool_; }
  TimedExecutor* timed() { return timed_.get(); }

 private:
  std::unique_ptr<TimedExecutor> timed_;
  Runtime rt_;
  exec::WorkStealingExecutor* pool_ = nullptr;
};

/// Per-burst trace of the blocks' own end stamps and the dispatch calls,
/// each sample stamped with its burst's start.
struct BurstTrace {
  std::array<std::atomic<std::int64_t>, kFanout> block_end{};
  std::vector<TimedSample> dispatch_ns;
  std::vector<TimedSample> wake_us;
};

/// One burst: 64 name_as blocks, then wait_tag. Each block adds its value
/// to `acc`; the join must see the closed-form sum.
bool burst(FanoutSystem& sys, std::uint64_t base, BurstTrace* trace) {
  const std::int64_t started = now_ns();
  std::atomic<std::uint64_t> acc{0};
  for (std::size_t j = 0; j < kFanout; ++j) {
    const std::uint64_t v = base + j;
    if (trace != nullptr) {
      std::atomic<std::int64_t>* end = &trace->block_end[j];
      const std::int64_t t0 = now_ns();
      sys.rt().invoke_target_block(
          "w",
          [&acc, v, end] {
            acc.fetch_add(v, std::memory_order_relaxed);
            end->store(now_ns(), std::memory_order_relaxed);
          },
          Async::kNameAs, "fanout");
      trace->dispatch_ns.emplace_back(started,
                                      static_cast<double>(now_ns() - t0));
    } else {
      sys.rt().invoke_target_block(
          "w", [&acc, v] { acc.fetch_add(v, std::memory_order_relaxed); },
          Async::kNameAs, "fanout");
    }
  }
  sys.rt().wait_tag("fanout");
  if (trace != nullptr) {
    const std::int64_t joined = now_ns();
    std::int64_t last = 0;
    for (auto& e : trace->block_end) {
      last = std::max(last, e.load(std::memory_order_relaxed));
    }
    trace->wake_us.emplace_back(started, ns_to_us(joined - last));
  }
  return acc.load(std::memory_order_relaxed) ==
         kFanout * base + kFanout * (kFanout - 1) / 2;
}

Result run_fanout(const Options& opt) {
  Result r;
  const Plan plan = plan_for(opt.seconds, false);
  std::mt19937_64 rng(mix_seed(opt.seed, opt.workload));
  std::uint64_t next_base = rng();
  std::uint64_t wrong = 0;
  std::unique_ptr<FanoutSystem> sys;
  const auto one_burst = [&](BurstTrace* trace) {
    const std::uint64_t base = next_base;
    next_base += kFanout;
    if (!burst(*sys, base, trace)) ++wrong;
  };

  SetupTimes setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    sys.reset();
    setup.begin();
    sys = std::make_unique<FanoutSystem>(opt.traced);
    one_burst(nullptr);  // ready when one burst has joined
    setup.end();
  }
  const std::int64_t warm_end =
      now_ns() + static_cast<std::int64_t>(plan.warm_s * 1e9);
  while (now_ns() < warm_end) one_burst(nullptr);

  // Closed loop: the submitter starts the next burst when the last joined.
  FixedPhase f;
  LayerValues lv;
  BurstTrace trace;
  SampleSink probe_ms(static_cast<std::size_t>(plan.fixed_s * 2000) + 1024);
  const std::size_t cap = static_cast<std::size_t>(plan.fixed_s * 20'000) + 64;
  f.latency_ms.reserve(cap);
  f.op_at.reserve(cap);
  if (opt.traced) {
    trace.dispatch_ns.reserve(kTracedBursts * kFanout);
    trace.wake_us.reserve(cap);
    sys->timed()->arm();
  }
  const evmp::RuntimeStats rs0 = sys->rt().stats();
  const std::uint64_t steals0 = sys->pool().steals();
  const std::uint64_t inj0 = sys->pool().injection_pops();
  {
    Probe probe(sys->pool(), probe_ms);
    WindowSampler sampler(kWindowNs);
    sampler.start();
    probe.start();
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(plan.fixed_s * 1e9);
    while (f.latency_ms.size() < cap) {
      const std::int64_t t0 = now_ns();
      if (t0 >= end) break;
      // Spans and dispatch times are kept for the first bursts only (the
      // decorator still times every block alike).
      const bool keep = opt.traced && f.op_at.size() < kTracedBursts;
      one_burst(keep ? &trace : nullptr);
      f.latency_ms.emplace_back(t0, ns_to_ms(now_ns() - t0));
      f.op_at.push_back(t0);
    }
    f.windows = sampler.stop();
  }
  const evmp::RuntimeStats rs1 = sys->rt().stats();
  std::vector<BlockSpan> spans;
  if (opt.traced) spans = sys->timed()->disarm();
  f.attempted = f.latency_ms.size();
  f.failed = wrong;
  f.probe_ms = probe_ms.take_timed();
  const FixedSummary sum = summarize(f);
  const double blocks_per_s = sum.ops_per_s * kFanout;

  if (wrong != 0) {
    r.problems.push_back(std::to_string(wrong) +
                         " bursts joined with a wrong sum");
  }
  // One caller in a closed loop: the burst rate it sustains is the
  // capacity. (An open-loop burst ladder would time the submitter's own
  // timer wake-ups, which on this host are late by milliseconds at p99.)
  const double capacity = blocks_per_s / kFanout;

  add_common_e2e(r, f, sum, setup, capacity, blocks_per_s);
  if (opt.traced) {
    const std::vector<double> wake_us = sum.calm_values(trace.wake_us);
    lv["core.dispatch_ns"] =
        percentile(sum.calm_values(trace.dispatch_ns), 0.5);
    lv["core.wake_lag_us_p50"] = percentile(wake_us, 0.5);
    lv["core.wake_lag_us_p99"] = percentile(wake_us, 0.99);
    add_runtime_layers(lv, rs0, rs1, static_cast<double>(f.attempted));
    add_executor_span_layers(lv, spans, sys->pool().concurrency(), sum);
    const double blocks = static_cast<double>(f.attempted * kFanout);
    lv["executor.steals_per_kblock"] =
        1000.0 * static_cast<double>(sys->pool().steals() - steals0) /
        std::max(blocks, 1.0);
    lv["executor.injection_pops"] =
        static_cast<double>(sys->pool().injection_pops() - inj0);
    add_proc_layers(lv, f, sum);
  }
  r.layer = layer_metrics(lv);
  r.info_json = Json()
                    .raw("fixed", fixed_info(f, sum, setup))
                    .field("blocks_per_burst", static_cast<double>(kFanout))
                    .str();
  sys.reset();
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "echo_small", "crypt_service", "edt_await", "fanout_join"};
  return names;
}

Result run_workload(const Options& opt) {
  if (opt.workload == "echo_small") return run_net(opt, false);
  if (opt.workload == "crypt_service") return run_net(opt, true);
  if (opt.workload == "edt_await") return run_edt(opt);
  if (opt.workload == "fanout_join") return run_fanout(opt);
  throw std::invalid_argument("unknown workload: " + opt.workload);
}

}  // namespace perfbench
